package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRenderTimeline(t *testing.T) {
	// PE 0 busy for the first half of a 100ms horizon.
	evs := []Event{
		{PE: 0, Kind: EvBegin, At: 0},
		{PE: 0, Kind: EvEnd, At: 50 * time.Millisecond},
	}
	// PE 1 idle throughout.
	var buf bytes.Buffer
	RenderTimelineEvents(&buf, evs, 2, 100*time.Millisecond, 10)
	out := buf.String()
	if !strings.Contains(out, "PE   0") || !strings.Contains(out, "PE   1") {
		t.Fatalf("missing PE rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// PE 0's row should contain full-shade columns; PE 1's none.
	if !strings.Contains(lines[1], "█") {
		t.Errorf("busy PE has no full-shade cells: %q", lines[1])
	}
	if strings.ContainsAny(lines[2], "░▒▓█") {
		t.Errorf("idle PE has shaded cells: %q", lines[2])
	}
}

// busyFractions is a timeline row's busy fraction per bucket: handler
// time minus recorded idle.
func busyFractions(evs []Event, horizon time.Duration, buckets int) []float64 {
	return bucketFractions(subtractSpans(busySpans(evs, horizon), idleSpans(evs, horizon)), horizon, buckets)
}

func TestBusyPerBucketFractions(t *testing.T) {
	// Busy [10ms, 15ms) within a 40ms horizon, 4 buckets of 10ms:
	// bucket 1 should be exactly 50% busy.
	busy := busyFractions([]Event{
		{PE: 0, Kind: EvBegin, At: 10 * time.Millisecond},
		{PE: 0, Kind: EvEnd, At: 15 * time.Millisecond},
	}, 40*time.Millisecond, 4)
	want := []float64{0, 0.5, 0, 0}
	for i := range want {
		if math.Abs(busy[i]-want[i]) > 1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, busy[i], want[i])
		}
	}
	// Open-ended Begin extends to the horizon.
	busy2 := busyFractions([]Event{{PE: 0, Kind: EvBegin, At: 30 * time.Millisecond}}, 40*time.Millisecond, 4)
	if math.Abs(busy2[3]-1.0) > 1e-9 {
		t.Errorf("open-ended span: bucket 3 = %v, want 1", busy2[3])
	}
}

func TestRenderTimelineDegenerate(t *testing.T) {
	var buf bytes.Buffer
	RenderTimelineEvents(&buf, nil, 0, time.Second, 10)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty timeline missing placeholder")
	}
	buf.Reset()
	RenderTimelineEvents(&buf, nil, 1, 0, 10)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("zero horizon timeline missing placeholder")
	}
}

func TestShadeMonotone(t *testing.T) {
	order := []rune{' ', '░', '▒', '▓', '█'}
	idx := func(r rune) int {
		for i, x := range order {
			if x == r {
				return i
			}
		}
		return -1
	}
	prev := -1
	for f := 0.0; f <= 1.0; f += 0.05 {
		i := idx(shade(f))
		if i < 0 {
			t.Fatalf("shade(%v) produced unknown rune", f)
		}
		if i < prev {
			t.Fatalf("shade not monotone at %v", f)
		}
		prev = i
	}
}
