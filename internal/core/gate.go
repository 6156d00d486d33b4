package core

// StepGate captures the dependence pattern at the heart of iterative
// message-driven applications (and of the paper's latency-masking
// argument): an object may advance to step s+1 only after receiving a
// fixed number of messages tagged with step s, while messages for future
// steps — which arrive early precisely because neighbors are allowed to
// run ahead — must be buffered, not dropped. It plays the role a
// structured-dagger "when" clause plays in Charm++.
//
// Usage, inside a chare's Recv:
//
//	if vals, ok := gate.Deliver(msg.Step, msg); ok {
//	    apply(vals...)
//	    for gate.Ready() {
//	        compute()
//	        for _, m := range gate.Advance() { apply(m) }
//	    }
//	}
//
// StepGate is not goroutine-safe; like all chare state it belongs to one
// element and is touched only by its scheduler.
type StepGate struct {
	step   int
	need   int
	got    int
	future map[int][]any
	spare  []any // the slice the last Advance returned, for reuse
}

// NewStepGate builds a gate expecting need messages per step.
func NewStepGate(need int) *StepGate {
	return &StepGate{need: need, future: make(map[int][]any)}
}

// Step reports the current step.
func (g *StepGate) Step() int { return g.step }

// Deliver accepts one message tagged with its step. If the message is for
// the current step it is counted and returned (ok=true); a message for a
// future step is buffered (ok=false). Messages for past steps are a
// protocol error and panic loudly.
func (g *StepGate) Deliver(step int, m any) (any, bool) {
	switch {
	case step == g.step:
		g.got++
		return m, true
	case step > g.step:
		q, ok := g.future[step]
		if !ok && g.spare != nil {
			q, g.spare = g.spare[:0], nil
		}
		g.future[step] = append(q, m)
		return nil, false
	}
	panic("core: StepGate received a message for a completed step")
}

// Ready reports whether the current step has all its messages.
func (g *StepGate) Ready() bool { return g.got >= g.need }

// Advance moves to the next step and returns the messages that arrived
// early for it, in arrival order — each is already counted toward the new
// step. Call only when Ready. The returned slice is the gate's to reuse:
// it is valid until the next Deliver.
func (g *StepGate) Advance() []any {
	if !g.Ready() {
		panic("core: StepGate.Advance before Ready")
	}
	g.step++
	g.got = 0
	pend := g.future[g.step]
	delete(g.future, g.step)
	g.got = len(pend)
	if pend != nil {
		clear(g.spare)
		g.spare = pend
	}
	return pend
}

// JumpTo resets the gate to a given step with no messages pending — the
// state a migrating element is packed in, parked at AtSync.
func (g *StepGate) JumpTo(step int) {
	g.step = step
	g.got = 0
	g.future = make(map[int][]any)
}

// PendingFuture reports how many messages are buffered for future steps
// (useful for tests and invariant checks).
func (g *StepGate) PendingFuture() int {
	n := 0
	for _, ms := range g.future {
		n += len(ms)
	}
	return n
}
