package core

import "fmt"

// ReduceOp selects how reduction contributions are combined.
type ReduceOp uint8

// Built-in reduction operations. They apply to float64 and element-wise to
// []float64.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Combine folds two reduction values under op. It panics on mixed or
// unsupported types: reductions are structural, and a type mismatch is a
// programming error best caught loudly.
func Combine(op ReduceOp, a, b any) any {
	switch av := a.(type) {
	case float64:
		bv := b.(float64)
		return combineF64(op, av, bv)
	case []float64:
		bv := b.([]float64)
		if len(av) != len(bv) {
			panic(fmt.Sprintf("core: reduction of []float64 with mismatched lengths %d and %d", len(av), len(bv)))
		}
		out := make([]float64, len(av))
		for i := range av {
			out[i] = combineF64(op, av[i], bv[i])
		}
		return out
	}
	panic(fmt.Sprintf("core: unsupported reduction value type %T", a))
}

func combineF64(op ReduceOp, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("core: unknown reduction op %d", op))
}

// ReducePartial is the KindReduce payload: one PE's combined contribution
// for one reduction round.
type ReducePartial struct {
	Array ArrayID
	Seq   int64
	Op    ReduceOp
	Value any
	// Contribs is how many elements this partial folds together; the root
	// uses it to know when every element has been heard from, which stays
	// correct even if elements migrate between rounds.
	Contribs int
}

// PayloadBytes implements Sizer: partials are small control messages.
func (ReducePartial) PayloadBytes() int { return 48 }

// PUP is the partial's wire form; Value nests as a tagged payload.
func (r *ReducePartial) PUP(p *PUP) {
	PUPVarint(p, &r.Array)
	p.Varint(&r.Seq)
	PUPUvarint(p, &r.Op)
	PUPVarint(p, &r.Contribs)
	p.Payload(&r.Value)
}

type redKey struct {
	a   ArrayID
	seq int64
}

type redAgg struct {
	n  int
	v  any
	op ReduceOp
}

// ReduceMgr implements the reduction protocol for one PE. Elements
// contribute locally; when every local element of the array has
// contributed to a round, the PE emits a partial to the root (PE 0); when
// the root has folded partials covering every element of the array, it
// invokes onResult. All methods must be called from the PE's scheduler.
type ReduceMgr struct {
	pe         int
	localCount func(a ArrayID) int // elements of a on this PE
	totalCount func(a ArrayID) int // total elements of a
	emit       func(m *Message)
	onResult   func(a ArrayID, seq int64, v any)

	local map[redKey]*redAgg // contributions gathering on this PE
	root  map[redKey]*rootAgg
}

type rootAgg struct {
	redAgg
	elems int // total element contributions folded so far
}

// NewReduceMgr builds a reduction manager for pe. onResult is only invoked
// on PE 0.
func NewReduceMgr(pe int, localCount, totalCount func(a ArrayID) int, emit func(*Message), onResult func(ArrayID, int64, any)) *ReduceMgr {
	return &ReduceMgr{
		pe:         pe,
		localCount: localCount,
		totalCount: totalCount,
		emit:       emit,
		onResult:   onResult,
		local:      make(map[redKey]*redAgg),
		root:       make(map[redKey]*rootAgg),
	}
}

// Contribute folds one element's contribution into round seq of array a.
func (r *ReduceMgr) Contribute(a ArrayID, seq int64, v any, op ReduceOp) {
	k := redKey{a: a, seq: seq}
	agg, ok := r.local[k]
	if !ok {
		agg = &redAgg{v: v, op: op, n: 1}
		r.local[k] = agg
	} else {
		if agg.op != op {
			panic(fmt.Sprintf("core: reduction round %v mixes ops %v and %v", k, agg.op, op))
		}
		agg.v = Combine(op, agg.v, v)
		agg.n++
	}
	if agg.n >= r.localCount(a) {
		delete(r.local, k)
		r.emit(&Message{
			Kind:  KindReduce,
			SrcPE: int32(r.pe),
			DstPE: 0,
			Data:  ReducePartial{Array: a, Seq: seq, Op: op, Value: agg.v, Contribs: agg.n},
			Bytes: ReducePartial{}.PayloadBytes(),
		})
	}
}

// HandlePartial folds a KindReduce message at the root.
func (r *ReduceMgr) HandlePartial(m *Message) error {
	p, ok := m.Data.(ReducePartial)
	if !ok {
		return fmt.Errorf("core: KindReduce message with payload %T", m.Data)
	}
	k := redKey{a: p.Array, seq: p.Seq}
	agg, ok := r.root[k]
	if !ok {
		agg = &rootAgg{redAgg: redAgg{v: p.Value, op: p.Op, n: 1}, elems: p.Contribs}
		r.root[k] = agg
	} else {
		agg.v = Combine(p.Op, agg.v, p.Value)
		agg.n++
		agg.elems += p.Contribs
	}
	total := r.totalCount(p.Array)
	if agg.elems > total {
		return fmt.Errorf("core: reduction %v overflowed: %d contributions for %d elements", k, agg.elems, total)
	}
	if agg.elems == total {
		delete(r.root, k)
		r.onResult(p.Array, p.Seq, agg.v)
	}
	return nil
}
