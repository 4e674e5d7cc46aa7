package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/obs"
)

// This file layers sessions on the record log: a Store manages one
// directory per session under <root>/sessions/<id>/, each holding
//
//	meta.json            session identity (id, name, created)
//	wal-<seq>.seg        the op log (log.go)
//	ckpt-<seq>.json      snapshot checkpoints
//
// A checkpoint at sequence S captures the session after applying records
// 1..S: the table-registering ops (demo/load) needed to rebuild the
// session's raw-table registry, plus the current sheet's full interaction
// state — query state and undo/redo stacks — via the core persist layer.
// Recovery restores the newest checkpoint and replays only records S+1..
// Checkpoints whose history crosses a binary operator cannot carry their
// stacks (the entries hang off a derived base relation) and degrade to
// approximate query-state-only documents; if replay then reaches below one
// (an undo past the checkpoint), recovery falls back to older checkpoints
// and finally to a full-history replay, which is always exact because the
// log holds every mutating op since the session was born.

// Session-store metrics.
var (
	walSnapshots     = obs.Default.Counter("wal.snapshot_writes")
	walSnapshotSkips = obs.Default.Counter("wal.snapshot_skips")
	walRecoveries    = obs.Default.Counter("wal.recoveries")
	walReplayedOps   = obs.Default.Counter("wal.replayed_ops")
	walReplayErrors  = obs.Default.Counter("wal.replay_errors")
	walFallbacks     = obs.Default.Counter("wal.recovery_fallbacks")
	walRecoverySecs  = obs.Default.Histogram("wal.recovery_seconds")
)

// DefaultSnapshotEvery is the checkpoint cadence when Store.SnapshotEvery
// is 0: one checkpoint per this many logged (mutating) ops. Each checkpoint
// costs up to three inline fsyncs (log, checkpoint file, directory), so the
// cadence trades op-path stalls against recovery replay length; replaying a
// few hundred algebra ops takes low milliseconds, making a sparse cadence
// the better default.
const DefaultSnapshotEvery = 256

// Store manages per-session durability under a root data directory.
type Store struct {
	root          string
	opts          Options
	snapshotEvery int
}

// NewStore opens (creating if needed) a data directory. snapshotEvery is
// the checkpoint cadence in logged ops (0 = DefaultSnapshotEvery).
func NewStore(root string, opts Options, snapshotEvery int) (*Store, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(filepath.Join(root, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &Store{root: root, opts: opts.withDefaults(), snapshotEvery: snapshotEvery}, nil
}

// Root returns the store's data directory.
func (st *Store) Root() string { return st.root }

// SessionMeta identifies one durable session.
type SessionMeta struct {
	ID      string    `json:"id"`
	Name    string    `json:"name,omitempty"`
	Created time.Time `json:"created"`
}

// Sessions scans the data directory and returns every durable session's
// metadata, sorted by id.
func (st *Store) Sessions() ([]SessionMeta, error) {
	dir := filepath.Join(st.root, "sessions")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var metas []SessionMeta
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name(), "meta.json"))
		if err != nil {
			continue // half-created session dir; ignore
		}
		var m SessionMeta
		if err := json.Unmarshal(raw, &m); err != nil || m.ID != e.Name() {
			continue
		}
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID < metas[j].ID })
	return metas, nil
}

// Remove deletes a session's durable state entirely (explicit session
// deletion, as opposed to eviction, which keeps the data for rehydration).
func (st *Store) Remove(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(st.root, "sessions", id)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(filepath.Join(st.root, "sessions"))
}

// validID rejects ids that could escape the sessions directory.
func validID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return fmt.Errorf("wal: bad session id %q", id)
	}
	return nil
}

// SessionLog is one session's WAL plus its checkpoints. It is not safe for
// concurrent use: the serving layer already serialises each session behind
// its mutex, and recovery runs before the session serves traffic.
type SessionLog struct {
	store *Store
	dir   string
	log   *Log

	// dataOps is the logged subsequence of table-registering ops
	// (Op.RegistersTables); every checkpoint embeds it so recovery can
	// rebuild the raw-table registry before restoring sheet state.
	dataOps []engine.Op
	// ckptSeq is the newest checkpoint's sequence (0 = none).
	ckptSeq uint64
	// sinceCkpt counts logged ops since the newest checkpoint.
	sinceCkpt int
}

// Open opens (creating if needed) the session's log directory.
func (st *Store) Open(meta SessionMeta) (*SessionLog, error) {
	if err := validID(meta.ID); err != nil {
		return nil, err
	}
	dir := filepath.Join(st.root, "sessions", meta.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	metaPath := filepath.Join(dir, "meta.json")
	if _, err := os.Stat(metaPath); os.IsNotExist(err) {
		raw, err := json.Marshal(meta)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if err := atomicWrite(metaPath, raw, true); err != nil {
			return nil, err
		}
	}
	log, err := OpenLog(dir, st.opts)
	if err != nil {
		return nil, err
	}
	sl := &SessionLog{store: st, dir: dir, log: log}
	if seqs := sl.checkpointSeqs(); len(seqs) > 0 {
		sl.ckptSeq = seqs[len(seqs)-1]
	}
	// A checkpoint can sit past the log tail (its write fsyncs the log
	// first, but a tampered or copied directory may disagree); treat that
	// as "nothing to replay" rather than underflowing the counter.
	if last := log.LastSeq(); last > sl.ckptSeq {
		sl.sinceCkpt = int(last - sl.ckptSeq)
	}
	return sl, nil
}

// AppendOp logs one successfully applied mutating op.
func (sl *SessionLog) AppendOp(op engine.Op) error {
	payload, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("wal: encoding op: %w", err)
	}
	if _, err := sl.log.Append(payload); err != nil {
		return err
	}
	if op.RegistersTables() {
		sl.dataOps = append(sl.dataOps, op)
	}
	sl.sinceCkpt++
	return nil
}

// ShouldCheckpoint reports whether enough ops accumulated since the last
// checkpoint to warrant a new one.
func (sl *SessionLog) ShouldCheckpoint() bool {
	return sl.sinceCkpt >= sl.store.snapshotEvery
}

// checkpointJSON is the on-disk checkpoint layout.
type checkpointJSON struct {
	Format  int    `json:"format"`
	Seq     uint64 `json:"seq"`
	Exact   bool   `json:"exact"`
	Version int    `json:"version,omitempty"`
	// Full marks State as a core full-interaction-state document
	// (MarshalSheetFull: query state + undo/redo stacks); otherwise it is
	// the plain query-state document.
	Full    bool            `json:"full,omitempty"`
	DataOps []engine.Op     `json:"data_ops,omitempty"`
	State   json.RawMessage `json:"state,omitempty"` // core persist document; absent = no sheet
}

const checkpointFormat = 1

const ckptPrefix, ckptSuffix = "ckpt-", ".json"

func ckptName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, seq, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(ckptPrefix):len(name)-len(ckptSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// checkpointSeqs lists the on-disk checkpoint sequences, ascending.
func (sl *SessionLog) checkpointSeqs() []uint64 {
	entries, err := os.ReadDir(sl.dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseCkptName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// Checkpoint writes a snapshot of the engine's current state at the log's
// current tail. Sessions whose sheet cannot round-trip through the persist
// layer (the base relation was replaced by a binary operator and is no
// longer a registered table) skip the snapshot — recovery for them replays
// a longer suffix instead; that is a performance loss, never a correctness
// one.
//
// The preferred document is the full interaction state (query state plus
// undo/redo stacks): restoring it reproduces the session perfectly, so the
// checkpoint is exact and the log prefix and older checkpoints become
// redundant and are pruned. When the history is not portable (it crosses a
// binary operator, so stack entries hang off a derived base relation), the
// checkpoint degrades to the plain query state and is marked approximate:
// it recovers the current grid, but a replayed or future undo can reach
// below it, so the log below is kept as ground truth and recovery falls
// back to it when the checkpoint proves insufficient.
func (sl *SessionLog) Checkpoint(e *engine.Engine) error {
	ck := checkpointJSON{
		Format:  checkpointFormat,
		Seq:     sl.log.LastSeq(),
		Exact:   true,
		DataOps: sl.dataOps,
	}
	if sheet := e.Sheet(); sheet != nil {
		// The persist document re-attaches to the base by registry lookup,
		// so the sheet's base must BE a registered relation — compared by
		// identity, because a joined base inherits the sheet's name and can
		// shadow the table it was derived from.
		if rel, ok := e.DB().Table(sheet.Base().Name); !ok || rel != sheet.Base() {
			// Binary ops replaced the base with a derived relation the
			// persist layer cannot reattach; keep replaying from the last
			// good checkpoint.
			walSnapshotSkips.Inc()
			sl.sinceCkpt = 0
			return nil
		}
		ck.Version = sheet.Version()
		switch state, err := e.MarshalSheetFull(); {
		case err == nil:
			ck.State = state
			ck.Full = true
		case errors.Is(err, core.ErrHistoryNotPortable):
			state, err := sheet.MarshalState()
			if err != nil {
				walSnapshotSkips.Inc()
				sl.sinceCkpt = 0
				return nil
			}
			ck.State = state
			ck.Exact = false // the stacks this document drops are non-empty
		default:
			walSnapshotSkips.Inc()
			sl.sinceCkpt = 0
			return nil
		}
	}
	// The checkpoint must cover every record up to its sequence, so make
	// the log durable first: a checkpoint claiming seq S while record S
	// sits unsynced could otherwise survive a power cut that the record
	// did not. SyncNone has already conceded power-loss durability, so it
	// skips the fsyncs here too (the rename still makes the checkpoint
	// atomic and kill -9-safe).
	durable := sl.store.opts.Sync != SyncNone
	if durable {
		if err := sl.log.Sync(); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(&ck)
	if err != nil {
		return fmt.Errorf("wal: encoding checkpoint: %w", err)
	}
	if err := atomicWrite(filepath.Join(sl.dir, ckptName(ck.Seq)), raw, durable); err != nil {
		return err
	}
	prev := sl.checkpointSeqs()
	sl.ckptSeq = ck.Seq
	sl.sinceCkpt = 0
	walSnapshots.Inc()
	if ck.Exact {
		// The exact snapshot supersedes all history up to Seq.
		if err := sl.log.PruneThrough(ck.Seq); err != nil {
			return err
		}
		for _, seq := range prev {
			if seq < ck.Seq {
				_ = os.Remove(filepath.Join(sl.dir, ckptName(seq)))
			}
		}
	} else {
		// Keep a short fallback chain of approximate checkpoints; the
		// full log remains the ground truth below them.
		const keep = 3
		older := 0
		for i := len(prev) - 1; i >= 0; i-- {
			if prev[i] >= ck.Seq {
				continue
			}
			older++
			if older > keep {
				_ = os.Remove(filepath.Join(sl.dir, ckptName(prev[i])))
			}
		}
	}
	return nil
}

// RecoveryStats reports what recovery did.
type RecoveryStats struct {
	// CheckpointSeq is the checkpoint the session was restored from
	// (0 = full-history replay).
	CheckpointSeq uint64
	// Replayed counts log records applied on top of the checkpoint.
	Replayed int
	// Fallbacks counts checkpoints that failed to reproduce the session
	// before one succeeded (or full replay was reached).
	Fallbacks int
	// ReplayErr is set when the final replay stopped early at a failing
	// op (e.g. a binary operator whose stored-sheet operand was saved by
	// another session and is gone after restart). The session recovers to
	// the state just before the failing record.
	ReplayErr string
}

// Recover rebuilds the session's engine: newest checkpoint plus log-suffix
// replay, falling back through older checkpoints to a full-history replay.
// newEngine builds a fresh engine (seeded the same way a new session's
// would be); each recovery attempt gets its own so a failed attempt leaves
// no partial state behind.
func (sl *SessionLog) Recover(newEngine func() (*engine.Engine, error)) (*engine.Engine, RecoveryStats, error) {
	start := obs.StartTimer()
	stats := RecoveryStats{}
	seqs := sl.checkpointSeqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		eng, replayed, err := sl.tryCheckpoint(seqs[i], newEngine)
		if err != nil {
			stats.Fallbacks++
			walFallbacks.Inc()
			continue
		}
		stats.CheckpointSeq = seqs[i]
		stats.Replayed = replayed
		walRecoveries.Inc()
		walRecoverySecs.Since(start)
		return eng, stats, nil
	}
	// Full-history replay: always semantically exact, because the engine
	// reproduces undo/redo stacks from the op sequence itself. A mid-log
	// op failure (lost cross-session dependency) stops the replay there;
	// the session surfaces at the state reached, and the error is
	// reported in the stats rather than failing rehydration.
	eng, err := newEngine()
	if err != nil {
		return nil, stats, err
	}
	sl.dataOps = nil
	replayed := 0
	err = sl.log.ReadFrom(1, func(seq uint64, payload []byte) error {
		op, aerr := applyRecord(eng, payload)
		if aerr != nil {
			return &replayStop{seq: seq, err: aerr}
		}
		if op.RegistersTables() {
			sl.dataOps = append(sl.dataOps, op)
		}
		replayed++
		return nil
	})
	if err != nil {
		var stop *replayStop
		if errors.As(err, &stop) {
			stats.ReplayErr = fmt.Sprintf("record %d: %v", stop.seq, stop.err)
			walReplayErrors.Inc()
		} else {
			return nil, stats, err
		}
	}
	stats.Replayed = replayed
	walReplayedOps.Add(int64(replayed))
	walRecoveries.Inc()
	walRecoverySecs.Since(start)
	return eng, stats, nil
}

// tryCheckpoint restores one checkpoint and replays the suffix after it
// into a fresh engine. Any failure — unreadable checkpoint, unrestorable
// state, or a replayed op erroring (an approximate checkpoint whose suffix
// undoes below it) — rejects the attempt so Recover can fall back.
func (sl *SessionLog) tryCheckpoint(seq uint64, newEngine func() (*engine.Engine, error)) (*engine.Engine, int, error) {
	raw, err := os.ReadFile(filepath.Join(sl.dir, ckptName(seq)))
	if err != nil {
		return nil, 0, err
	}
	var ck checkpointJSON
	if err := json.Unmarshal(raw, &ck); err != nil {
		return nil, 0, fmt.Errorf("wal: bad checkpoint: %w", err)
	}
	if ck.Format != checkpointFormat || ck.Seq != seq {
		return nil, 0, fmt.Errorf("wal: bad checkpoint %d", seq)
	}
	eng, err := newEngine()
	if err != nil {
		return nil, 0, err
	}
	dataOps := append([]engine.Op(nil), ck.DataOps...)
	for _, op := range ck.DataOps {
		if _, err := eng.Apply(op); err != nil {
			return nil, 0, fmt.Errorf("wal: checkpoint data op %q: %w", op.Op, err)
		}
	}
	switch {
	case len(ck.State) > 0 && ck.Full:
		if err := eng.RestoreSheetFull(ck.State); err != nil {
			return nil, 0, err
		}
	case len(ck.State) > 0:
		if err := eng.RestoreSheet(ck.State); err != nil {
			return nil, 0, err
		}
		if ck.Version > 0 {
			eng.Sheet().SetVersion(ck.Version)
		}
	case !ck.Exact:
		return nil, 0, fmt.Errorf("wal: checkpoint %d has no sheet but is not exact", seq)
	}
	replayed := 0
	err = sl.log.ReadFrom(seq+1, func(_ uint64, payload []byte) error {
		op, aerr := applyRecord(eng, payload)
		if aerr != nil {
			return aerr
		}
		if op.RegistersTables() {
			dataOps = append(dataOps, op)
		}
		replayed++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	sl.dataOps = dataOps
	walReplayedOps.Add(int64(replayed))
	return eng, replayed, nil
}

// applyRecord decodes and applies one logged op.
func applyRecord(eng *engine.Engine, payload []byte) (engine.Op, error) {
	var op engine.Op
	if err := json.Unmarshal(payload, &op); err != nil {
		return op, fmt.Errorf("wal: decoding op record: %w", err)
	}
	_, err := eng.Apply(op)
	return op, err
}

// replayStop wraps an op-application failure during full replay so it can
// be told apart from log-level read failures.
type replayStop struct {
	seq uint64
	err error
}

func (r *replayStop) Error() string {
	return fmt.Sprintf("wal: replay stopped at record %d: %v", r.seq, r.err)
}
func (r *replayStop) Unwrap() error { return r.err }

// Close checkpoints the session (so a later rehydration replays nothing)
// and closes the log. e may be nil when no engine state is available (the
// caller is abandoning the session); the log is then closed as-is and
// recovery will replay the suffix.
func (sl *SessionLog) Close(e *engine.Engine) error {
	var err error
	if e != nil && sl.sinceCkpt > 0 {
		err = sl.Checkpoint(e)
	}
	if cerr := sl.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// LastSeq exposes the log's newest record sequence.
func (sl *SessionLog) LastSeq() uint64 { return sl.log.LastSeq() }

// atomicWrite writes data to path via a temp file + rename, so the file is
// either absent or complete under any crash. With sync set it also fsyncs
// the file and its directory, hardening the write against power loss.
func atomicWrite(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if !sync {
		return nil
	}
	return syncDir(dir)
}
