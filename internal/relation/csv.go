package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"

	"sheetmusiq/internal/value"
)

// WriteCSV writes the relation with a header row.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return err
	}
	rec := make([]string, len(r.Schema))
	for _, t := range r.TupleRange(0, r.Len()) {
		for i, v := range t {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the relation to a file.
func (r *Relation) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteCSV(f); err != nil {
		return err
	}
	return f.Sync()
}

// ReadCSV loads a relation from CSV with a header row. When schema is nil,
// column kinds are inferred from the first data row (NULL-only columns fall
// back to TEXT).
func ReadCSV(name string, rd io.Reader, schema Schema) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csv %s: read header: %w", name, err)
	}
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv %s: %w", name, err)
	}
	if schema == nil {
		schema = make(Schema, len(header))
		for i, h := range header {
			kind := value.KindString
			for _, rec := range records {
				if i >= len(rec) || rec[i] == "" {
					continue
				}
				kind = value.Infer(rec[i]).Kind()
				break
			}
			schema[i] = Column{Name: strings.TrimSpace(h), Kind: kind}
		}
	} else if len(schema) != len(header) {
		return nil, fmt.Errorf("csv %s: header arity %d != schema arity %d", name, len(header), len(schema))
	}
	rel := New(name, schema)
	row := make(Tuple, len(schema)) // Append copies the cells, so one row serves every record
	for ln, rec := range records {
		if len(rec) != len(schema) {
			return nil, fmt.Errorf("csv %s: row %d arity %d != %d", name, ln+2, len(rec), len(schema))
		}
		for i, field := range rec {
			v, err := value.Parse(field, schema[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("csv %s row %d: %w", name, ln+2, err)
			}
			row[i] = v
		}
		if err := rel.Append(row); err != nil {
			return nil, fmt.Errorf("csv %s row %d: %w", name, ln+2, err)
		}
	}
	return rel, nil
}

// LoadCSV reads a relation from a file.
func LoadCSV(name, path string, schema Schema) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(name, f, schema)
}
