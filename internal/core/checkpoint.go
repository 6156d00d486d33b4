package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"
)

// Checkpointing captures every array element's state at a quiescent point
// (after Run has returned) and rebuilds it into a fresh Program — on the
// same machine, or on a different processor count ("shrink and expand the
// set of processors used by a parallel job", §2.1 of the paper; element
// placement is recomputed from the array's Map for the new machine).
//
// Elements of checkpointed arrays must implement Migratable — the same
// PUP method that serves load-balancer migration. A multi-process runtime
// produces a partial checkpoint covering its local PEs; the per-node
// parts are merged by element index with MergeCheckpoints before Install.

// ElemState is one element's serialized state.
type ElemState struct {
	Index int
	Data  []byte
}

// ArrayState is one array's serialized elements, sorted by index.
type ArrayState struct {
	ID    ArrayID
	N     int
	Elems []ElemState
}

// Checkpoint is a program snapshot. Partial marks a single node's share
// of a multi-process run; partial checkpoints must be merged with
// MergeCheckpoints before they can be installed.
type Checkpoint struct {
	Arrays  []ArrayState
	Partial bool
}

// Checkpoint snapshots all elements hosted by this runtime. It must be
// called after Run has returned (the quiescent point). On a multi-process
// runtime it returns this node's partial checkpoint — each node writes
// its own part, and the parts are joined with MergeCheckpoints.
func (rt *Runtime) Checkpoint() (*Checkpoint, error) {
	hosts := make([]*PEHost, len(rt.pes))
	for i, ps := range rt.pes {
		hosts[i] = ps.host
	}
	if rt.opts.Transport != nil {
		return buildCheckpoint(rt.prog, hosts, true)
	}
	return BuildCheckpoint(rt.prog, hosts)
}

// BuildCheckpoint assembles a complete checkpoint from the hosts of an
// executor at a quiescent point. It is exported for executor
// implementations; every element of every array must be present.
func BuildCheckpoint(prog *Program, hosts []*PEHost) (*Checkpoint, error) {
	return buildCheckpoint(prog, hosts, false)
}

func buildCheckpoint(prog *Program, hosts []*PEHost, partial bool) (*Checkpoint, error) {
	byArray := make(map[ArrayID]map[int][]byte)
	for _, h := range hosts {
		var err error
		h.Each(func(ref ElemRef, ch Chare) {
			if err != nil {
				return
			}
			m, ok := ch.(Migratable)
			if !ok {
				err = fmt.Errorf("core: element %v of type %T does not implement Migratable", ref, ch)
				return
			}
			data, perr := PUPPackCheckpoint(m)
			if perr != nil {
				err = fmt.Errorf("core: pack %v: %w", ref, perr)
				return
			}
			if byArray[ref.Array] == nil {
				byArray[ref.Array] = make(map[int][]byte)
			}
			byArray[ref.Array][ref.Index] = data
		})
		if err != nil {
			return nil, err
		}
	}
	ck := &Checkpoint{Partial: partial}
	for ai := range prog.Arrays {
		spec := &prog.Arrays[ai]
		elems := byArray[spec.ID]
		if !partial && len(elems) != spec.N {
			return nil, fmt.Errorf("core: array %d checkpointed %d of %d elements", spec.ID, len(elems), spec.N)
		}
		st := ArrayState{ID: spec.ID, N: spec.N, Elems: make([]ElemState, 0, len(elems))}
		idxs := make([]int, 0, len(elems))
		for i := range elems {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			st.Elems = append(st.Elems, ElemState{Index: i, Data: elems[i]})
		}
		ck.Arrays = append(ck.Arrays, st)
	}
	return ck, nil
}

// StateOf returns an element's checkpointed state bytes, if the
// checkpoint (possibly partial) has them. Used by membership recovery to
// restore a dead node's elements onto survivors.
func (ck *Checkpoint) StateOf(ref ElemRef) ([]byte, bool) {
	if ck == nil {
		return nil, false
	}
	for ai := range ck.Arrays {
		if ck.Arrays[ai].ID != ref.Array {
			continue
		}
		elems := ck.Arrays[ai].Elems
		i := sort.Search(len(elems), func(i int) bool { return elems[i].Index >= ref.Index })
		if i < len(elems) && elems[i].Index == ref.Index {
			return elems[i].Data, true
		}
	}
	return nil, false
}

// MergeCheckpoints joins per-node partial checkpoints (one per gridnode
// process) into one complete checkpoint. Arrays are merged by ID and
// elements by index; every element must appear exactly once across the
// parts, and each array must end up complete.
func MergeCheckpoints(parts ...*Checkpoint) (*Checkpoint, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: merge of zero checkpoints")
	}
	type arr struct {
		n     int
		elems map[int][]byte
	}
	arrays := make(map[ArrayID]*arr)
	var order []ArrayID
	for pi, part := range parts {
		if part == nil {
			return nil, fmt.Errorf("core: merge: part %d is nil", pi)
		}
		for i := range part.Arrays {
			st := &part.Arrays[i]
			a, ok := arrays[st.ID]
			if !ok {
				a = &arr{n: st.N, elems: make(map[int][]byte)}
				arrays[st.ID] = a
				order = append(order, st.ID)
			}
			if a.n != st.N {
				return nil, fmt.Errorf("core: merge: array %d declared with %d and %d elements", st.ID, a.n, st.N)
			}
			for _, e := range st.Elems {
				if _, dup := a.elems[e.Index]; dup {
					return nil, fmt.Errorf("core: merge: element %d of array %d appears in more than one part", e.Index, st.ID)
				}
				a.elems[e.Index] = e.Data
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	ck := &Checkpoint{}
	for _, id := range order {
		a := arrays[id]
		if len(a.elems) != a.n {
			return nil, fmt.Errorf("core: merge: array %d has %d of %d elements across parts", id, len(a.elems), a.n)
		}
		st := ArrayState{ID: id, N: a.n, Elems: make([]ElemState, 0, a.n)}
		idxs := make([]int, 0, a.n)
		for i := range a.elems {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			st.Elems = append(st.Elems, ElemState{Index: i, Data: a.elems[i]})
		}
		ck.Arrays = append(ck.Arrays, st)
	}
	return ck, nil
}

// A checkpoint file is the four magic bytes "GMCK", a format version
// byte, and the Checkpoint's own PUP traversal. Version 1 was a gob
// stream with no magic; such files are refused by version, not parsed.
const (
	checkpointMagic          = "GMCK"
	checkpointVersion   byte = 2
	checkpointHeaderLen      = len(checkpointMagic) + 1
)

// PUP is the checkpoint's file form: the container around the element
// states, which are themselves the bytes each element's PUP method packed.
func (c *Checkpoint) PUP(p *PUP) {
	p.Bool(&c.Partial)
	PUPSlice(p, &c.Arrays, 3, 0, func(a *ArrayState, p *PUP) {
		PUPVarint(p, &a.ID)
		PUPUvarint(p, &a.N)
		PUPSlice(p, &a.Elems, 2, 0, func(e *ElemState, p *PUP) {
			PUPUvarint(p, &e.Index)
			p.Bytes(&e.Data)
		})
	})
}

// Encode writes the checkpoint in the file format above.
func (c *Checkpoint) Encode(w io.Writer) error {
	body, err := PUPPack(c)
	if err == nil {
		_, err = w.Write(append([]byte(checkpointMagic), checkpointVersion))
	}
	if err == nil {
		_, err = w.Write(body)
	}
	if err != nil {
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	return nil
}

// DecodeCheckpoint reverses Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	if len(data) < checkpointHeaderLen || !bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return nil, fmt.Errorf("core: decode checkpoint: no %q header: not a checkpoint file, or one written before format version %d, which cannot be read", checkpointMagic, checkpointVersion)
	}
	if v := data[len(checkpointMagic)]; v != checkpointVersion {
		return nil, fmt.Errorf("core: decode checkpoint: format version %d, want %d", v, checkpointVersion)
	}
	var c Checkpoint
	if err := PUPUnpack(&c, data[checkpointHeaderLen:]); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	return &c, nil
}

// Install rewires prog so each array's elements are constructed from this
// checkpoint instead of ArraySpec.New: the element is built with New and
// its state is restored through its PUP method (validation lives in PUP's
// unpacking branch). The program may then be run on any
// topology. Arrays absent from the checkpoint keep their constructors.
func (c *Checkpoint) Install(prog *Program) error {
	if c.Partial {
		return fmt.Errorf("core: cannot install a partial checkpoint; merge the per-node parts first")
	}
	states := make(map[ArrayID]*ArrayState, len(c.Arrays))
	for i := range c.Arrays {
		states[c.Arrays[i].ID] = &c.Arrays[i]
	}
	for ai := range prog.Arrays {
		spec := &prog.Arrays[ai]
		st, ok := states[spec.ID]
		if !ok {
			continue
		}
		if st.N != spec.N {
			return fmt.Errorf("core: checkpoint has %d elements for array %d, program declares %d", st.N, spec.ID, spec.N)
		}
		data := make(map[int][]byte, len(st.Elems))
		for _, e := range st.Elems {
			data[e.Index] = e.Data
		}
		id := spec.ID
		construct := spec.New
		spec.New = func(i int) Chare {
			ch := construct(i)
			pu, ok := ch.(PUPable)
			if !ok {
				panic(fmt.Sprintf("core: restore element %d of array %d: type %T is not PUPable", i, id, ch))
			}
			if err := PUPUnpackCheckpoint(pu, data[i]); err != nil {
				panic(fmt.Sprintf("core: restore element %d of array %d: %v", i, id, err))
			}
			return ch
		}
	}
	return nil
}

// Each visits every element on this host in deterministic (array, index)
// order. It must only be called from the host's scheduler context or
// while the executor is stopped.
func (h *PEHost) Each(fn func(ref ElemRef, ch Chare)) {
	refs := append([]ElemRef(nil), h.refs...)
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Array != refs[j].Array {
			return refs[i].Array < refs[j].Array
		}
		return refs[i].Index < refs[j].Index
	})
	for _, ref := range refs {
		if ch := h.slot(ref).ch; ch != nil {
			fn(ref, ch)
		}
	}
}
