package core

import (
	"slices"
	"testing"
	"unsafe"
)

// The Message ownership rule: an executor releases a delivered app
// message to the pool once its handler has returned, and keeps the ones a
// host or membership recovery buffered. These tests push thousands of
// recycled messages through the real scheduler while messages are
// buffered, then check that the buffered ones replay intact.

func TestReleasedMessageIsZeroed(t *testing.T) {
	m := NewMessage()
	*m = Message{Kind: KindApp, To: ElemRef{1, 2}, Entry: 3, Data: []float64{4}, Bytes: 6,
		SrcPE: 7, DstPE: 8, ID: 9, Parent: 10, EnqueuedAt: 11}
	ReleaseMessage(m)
	if m.Data != nil {
		t.Fatal("a released message still references its payload")
	}
	if *m != (Message{}) {
		t.Errorf("released message is %+v, want zero", *m)
	}
	if m := NewMessage(); *m != (Message{}) {
		t.Errorf("NewMessage returned %+v, want zero", *m)
	}
}

// TestMessageSize pins the pooled struct every send draws and zeroes: 88
// bytes on a 64-bit host. A field added to Message shows up here.
func TestMessageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sized for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Message{}); got != 88 {
		t.Errorf("Message is %d bytes, want 88", got)
	}
}

// recycleHarness is one PE running a three-element program on the test
// goroutine: elements 0 and 1 relay a message between them churn times
// and then stop the scheduler; element 2, the one whose messages get
// buffered, logs what it receives.
type recycleHarness struct {
	rt    *Runtime
	churn int
	got   []parkedDelivery
}

type parkedDelivery struct {
	entry EntryID
	data  []float64
}

// target is the element whose messages are buffered.
var target = ElemRef{0, 2}

func newRecycleHarness(t *testing.T) *recycleHarness {
	t.Helper()
	h := &recycleHarness{}
	prog := &Program{
		Arrays: []ArraySpec{{ID: 0, N: 3, New: func(i int) Chare {
			return funcChare(func(ctx *Ctx, e EntryID, data any) {
				if i == target.Index {
					if e != EntryResumeFromSync {
						h.got = append(h.got, parkedDelivery{e, data.([]float64)})
					}
					return
				}
				if h.churn == 0 {
					h.stop()
					return
				}
				h.churn--
				ctx.Send(ElemRef{0, 1 - i}, 0, data)
			})
		}}},
		Start: func(*Ctx) {},
	}
	rt, err := NewRuntime(singlePE(t), prog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.dly.Close)
	h.rt = rt
	return h
}

func (h *recycleHarness) stop() { h.rt.pes[0].q.Close() }

// schedule runs the PE's scheduler until something stops it.
func (h *recycleHarness) schedule(t *testing.T) {
	t.Helper()
	h.rt.wg.Add(1)
	h.rt.schedule(h.rt.pes[0])
	if err := h.rt.Err(); err != nil {
		t.Fatal(err)
	}
}

// postAndChurn posts distinct payloads to the target, then relays churn
// recycled messages past them. It returns what was posted.
func (h *recycleHarness) postAndChurn(t *testing.T, churn int) []parkedDelivery {
	t.Helper()
	var want []parkedDelivery
	for k := 0; k < 8; k++ {
		d := parkedDelivery{EntryID(1 + k%3), []float64{float64(k), float64(k * k), -1}}
		want = append(want, d)
		h.rt.Post(target, d.entry, d.data)
	}
	h.churn = churn
	h.rt.Post(ElemRef{0, 0}, 0, []float64{42})
	h.schedule(t)
	if h.churn != 0 {
		t.Fatalf("relay stopped with %d messages to go", h.churn)
	}
	return want
}

func (h *recycleHarness) check(t *testing.T, want []parkedDelivery) {
	t.Helper()
	if len(h.got) != len(want) {
		t.Fatalf("target received %d messages, want %d", len(h.got), len(want))
	}
	for k := range want {
		if h.got[k].entry != want[k].entry || !slices.Equal(h.got[k].data, want[k].data) {
			t.Errorf("replayed message %d is entry %d %v, want entry %d %v",
				k, h.got[k].entry, h.got[k].data, want[k].entry, want[k].data)
		}
	}
}

// TestSyncParkedMessagesSurviveRecycling parks messages for an element at
// a load-balancing sync, recycles thousands of messages past them and
// replays them with ResumeFromSync.
func TestSyncParkedMessagesSurviveRecycling(t *testing.T) {
	h := newRecycleHarness(t)
	host := h.rt.pes[0].host
	host.slot(target).meta.atSync = true // as if the element had called AtSync
	want := h.postAndChurn(t, 5000)
	if n := host.ParkedMessages(target); n != len(want) {
		t.Fatalf("%d messages parked at sync, want %d", n, len(want))
	}
	if len(h.got) != 0 {
		t.Fatalf("element at sync received %d messages", len(h.got))
	}
	if err := host.ResumeFromSync(target); err != nil {
		t.Fatal(err)
	}
	h.check(t, want)
}

// TestArrivingMessagesSurviveRecycling buffers messages for an element
// that membership recovery is re-homing onto this PE, recycles thousands
// of messages past them and replays them from the element's KindMember
// construction.
func TestArrivingMessagesSurviveRecycling(t *testing.T) {
	h := newRecycleHarness(t)
	rt := h.rt
	if _, ok := rt.pes[0].host.removeElement(target); !ok {
		t.Fatal("target not hosted")
	}
	rt.expectArrival(target) // as if recovery had moved it here
	want := h.postAndChurn(t, 5000)
	if len(h.got) != 0 {
		t.Fatalf("element not yet constructed received %d messages", len(h.got))
	}
	rt.pes[0].q = NewQueue() // the relay closed the last one
	rt.enqueueLocal(&Message{Kind: KindMember, To: target, ID: rt.msgSeq.Add(1)})
	rt.Post(ElemRef{0, 0}, 0, []float64{42}) // churn is 0: the relay stops the replay's scheduler
	h.schedule(t)
	h.check(t, want)
}
