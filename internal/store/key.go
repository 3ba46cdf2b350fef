package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/logic"
)

// FormulaKey returns the portable identity of a formula: the hex-encoded
// first 16 bytes of a SHA-256 over an injective byte serialization of the
// syntax tree. Unlike *logic.IFormula pointers (process-local) or the 64-bit
// structural hash (collisions would flip persisted verdicts), this key is
// stable across processes and collision-proof for any realistic store size,
// so it can name skeletons, predicates, and validity verdicts on disk.
//
// The encoding mirrors logic's structural hash walk: a distinct tag byte per
// node kind, big-endian 8-byte numbers, length-prefixed strings, and child
// counts for variadic nodes, which makes it injective on the grammar without
// serializing the formula to text first. The whole encoding is appended to
// one pooled buffer and hashed once, so a key costs one allocation (the
// returned string). The key bytes name records on disk: changing them
// without a StoreParams bump silently turns every existing store cold.
func FormulaKey(f logic.Formula) string {
	bp := keyBufs.Get().(*[]byte)
	b := appendFormula((*bp)[:0], f)
	sum := sha256.Sum256(b)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	if cap(b) <= maxPooledKeyBuf {
		*bp = b
		keyBufs.Put(bp)
	}
	return string(out[:])
}

// keyBufs recycles encoding buffers across FormulaKey calls; buffers that
// grew past maxPooledKeyBuf on an outsized formula are left to the GC.
var keyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

const maxPooledKeyBuf = 64 << 10

// Key tags, mirroring logic's hash tags one to one.
const (
	keyVar byte = iota + 1
	keyIntLit
	keyAdd
	keySub
	keyMul
	keySelect
	keyApply
	keyArrVar
	keyStore
	keyAtom
	keyBool
	keyNot
	keyAnd
	keyOr
	keyImplies
	keyForall
	keyExists
	keyUnknown
	keyAEq
)

func appendNum(b []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(v))
}

func appendStr(b []byte, s string) []byte {
	return append(appendNum(b, int64(len(s))), s...)
}

func appendTerm(b []byte, t logic.Term) []byte {
	switch t := t.(type) {
	case logic.Var:
		return appendStr(append(b, keyVar), t.Name)
	case logic.IntLit:
		return appendNum(append(b, keyIntLit), t.Val)
	case logic.Add:
		b = appendTerm(append(b, keyAdd), t.X)
		return appendTerm(b, t.Y)
	case logic.Sub:
		b = appendTerm(append(b, keySub), t.X)
		return appendTerm(b, t.Y)
	case logic.Mul:
		b = appendNum(append(b, keyMul), t.C)
		return appendTerm(b, t.X)
	case logic.Select:
		b = appendArr(append(b, keySelect), t.A)
		return appendTerm(b, t.Idx)
	case logic.Apply:
		b = appendStr(append(b, keyApply), t.F)
		b = appendNum(b, int64(len(t.Args)))
		for _, a := range t.Args {
			b = appendTerm(b, a)
		}
		return b
	default:
		panic("store: unknown term in FormulaKey")
	}
}

func appendArr(b []byte, a logic.Arr) []byte {
	switch a := a.(type) {
	case logic.ArrVar:
		return appendStr(append(b, keyArrVar), a.Name)
	case logic.Store:
		b = appendArr(append(b, keyStore), a.A)
		b = appendTerm(b, a.Idx)
		return appendTerm(b, a.Val)
	default:
		panic("store: unknown array term in FormulaKey")
	}
}

func appendFormula(b []byte, f logic.Formula) []byte {
	switch f := f.(type) {
	case logic.Atom:
		b = appendNum(append(b, keyAtom), int64(f.Op))
		b = appendTerm(b, f.X)
		return appendTerm(b, f.Y)
	case logic.Bool:
		var v int64
		if f.Val {
			v = 1
		}
		return appendNum(append(b, keyBool), v)
	case logic.Not:
		return appendFormula(append(b, keyNot), f.F)
	case logic.And:
		return appendFormulas(append(b, keyAnd), f.Fs)
	case logic.Or:
		return appendFormulas(append(b, keyOr), f.Fs)
	case logic.Implies:
		b = appendFormula(append(b, keyImplies), f.A)
		return appendFormula(b, f.B)
	case logic.Forall:
		return appendFormula(appendBound(append(b, keyForall), f.Vars), f.Body)
	case logic.Exists:
		return appendFormula(appendBound(append(b, keyExists), f.Vars), f.Body)
	case logic.Unknown:
		return appendStr(append(b, keyUnknown), f.Name)
	case logic.AEq:
		b = appendArr(append(b, keyAEq), f.L)
		return appendArr(b, f.R)
	default:
		panic("store: unknown formula in FormulaKey")
	}
}

func appendFormulas(b []byte, fs []logic.Formula) []byte {
	b = appendNum(b, int64(len(fs)))
	for _, g := range fs {
		b = appendFormula(b, g)
	}
	return b
}

func appendBound(b []byte, vars []string) []byte {
	b = appendNum(b, int64(len(vars)))
	for _, v := range vars {
		b = appendStr(b, v)
	}
	return b
}
