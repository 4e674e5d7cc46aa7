package expr

import (
	"strings"

	"sheetmusiq/internal/value"
)

// Structural fingerprints for expression trees. The incremental evaluation
// pipeline (internal/core) keys cached stage snapshots by a fingerprint
// chained over the operator definitions a stage replays; predicates and
// formulas contribute through Fingerprint. The contract is the dual of
// value.Hash's: structurally identical trees (same node kinds, operators and
// literals, column names compared case-insensitively — the resolution rule
// the evaluator itself uses) produce the same fingerprint, and the
// fingerprint is deterministic for the life of the process, so it can be
// compared across Clone()d sheets and replayed sessions.
//
// The hash walks the tree in pre-order. Every node folds in a distinct type
// tag, so "(a) AND (b OR c)" and "(a AND b) OR (c)" cannot collide by node
// multiset alone; variadic nodes (IN lists, function calls) also fold in
// their arity, which disambiguates where their child lists end.

// Per-node-type fingerprint tags (arbitrary odd 64-bit constants).
const (
	fpSeed       uint64 = 0x9e3779b97f4a7c15
	fpTagLiteral uint64 = 0xbf58476d1ce4e5b9
	fpTagColumn  uint64 = 0x94d049bb133111eb
	fpTagStar    uint64 = 0xd6e8feb86659fd93
	fpTagBinary  uint64 = 0xa0761d6478bd642f
	fpTagUnary   uint64 = 0xe7037ed1a0b428db
	fpTagIsNull  uint64 = 0x8ebc6af09c88c6e3
	fpTagInList  uint64 = 0x589965cc75374cc3
	fpTagBetween uint64 = 0x1d8e4e27c47d124f
	fpTagFunc    uint64 = 0xeb44accab455d165
	fpTagSubq    uint64 = 0x2545f4914f6cdd1d
	fpTagWindow  uint64 = 0x7b9f2a4d1c8e6b35
)

// fpMix folds one 64-bit word into a running fingerprint, order-dependently.
func fpMix(h, x uint64) uint64 {
	h ^= x
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// fpString folds a string in case-insensitively (column names and operator
// spellings resolve case-insensitively throughout the algebra).
func fpString(h uint64, s string) uint64 {
	return fpMix(h, value.Hash(value.NewString(strings.ToLower(s))))
}

func fpBool(h uint64, b bool) uint64 {
	if b {
		return fpMix(h, 1)
	}
	return fpMix(h, 2)
}

// Fingerprint returns a deterministic 64-bit structural hash of e.
// Structurally equal trees fingerprint equally; differing operators,
// literals, column names (case-insensitively) or shapes fingerprint
// differently up to 64-bit collision odds.
func Fingerprint(e Expr) uint64 {
	h := fpSeed
	e.walk(func(n Expr) {
		switch n := n.(type) {
		case *Literal:
			h = fpMix(fpMix(h, fpTagLiteral), value.Hash(n.Val))
		case *ColumnRef:
			h = fpString(fpMix(h, fpTagColumn), n.Name)
		case *Star:
			h = fpMix(h, fpTagStar)
		case *Binary:
			h = fpString(fpMix(h, fpTagBinary), string(n.Op))
		case *Unary:
			h = fpString(fpMix(h, fpTagUnary), string(n.Op))
		case *IsNull:
			h = fpBool(fpMix(h, fpTagIsNull), n.Negate)
		case *InList:
			h = fpMix(fpBool(fpMix(h, fpTagInList), n.Negate), uint64(len(n.Items)))
		case *Between:
			h = fpBool(fpMix(h, fpTagBetween), n.Negate)
		case *FuncCall:
			h = fpMix(fpString(fpMix(h, fpTagFunc), n.Name), uint64(len(n.Args)))
		case *WindowCall:
			// Arities and per-key directions fold in at the node (they are
			// not children); the frame folds in by its SQL spelling.
			h = fpString(fpMix(h, fpTagWindow), string(n.Func))
			h = fpBool(h, n.Arg != nil)
			h = fpMix(h, uint64(len(n.PartitionBy)))
			h = fpMix(h, uint64(len(n.OrderBy)))
			for _, o := range n.OrderBy {
				h = fpBool(h, o.Desc)
			}
			if n.Frame != nil {
				h = fpString(h, n.Frame.String())
			}
		default:
			// Subquery forms: the stored SQL text is their whole identity
			// (the algebra rejects them before evaluation anyway).
			h = fpMix(h, fpTagSubq)
			h = fpMix(h, value.Hash(value.NewString(n.SQL())))
		}
	})
	return h
}

// FingerprintCombine chains an already-computed fingerprint (an upstream
// pipeline stage's, a definition hash) into h. Exposed so stage fingerprints
// can chain without re-deriving the mixing discipline.
func FingerprintCombine(h, x uint64) uint64 { return fpMix(h, x) }

// FingerprintString folds a case-insensitive string (a column name, an
// aggregate function name) into h.
func FingerprintString(h uint64, s string) uint64 { return fpString(h, s) }
