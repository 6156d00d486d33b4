package topology

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// randomSpec draws a valid canonical spec (the form ParseSpec produces:
// Count >= 1, Speed explicit) from rng.
func randomSpec(rng *rand.Rand) *Spec {
	s := &Spec{}
	groups := 1 + rng.Intn(3)
	for i := 0; i < groups; i++ {
		g := GroupSpec{Count: 1 + rng.Intn(4), PEs: 1 + rng.Intn(16), Speed: 1}
		if rng.Intn(2) == 0 {
			g.Speed = float64(1+rng.Intn(8)) / 4
		}
		s.Groups = append(s.Groups, g)
	}
	if rng.Intn(2) == 0 {
		s.WAN = time.Duration(1+rng.Intn(50)) * time.Millisecond
	}
	if rng.Intn(3) == 0 {
		s.Intra = time.Duration(1+rng.Intn(90)) * time.Microsecond
	}
	if rng.Intn(2) == 0 {
		min := time.Duration(1+rng.Intn(5)) * time.Millisecond
		s.Mesh = &MeshSpec{Seed: rng.Uint64() % 1000, Min: min, Max: min + time.Duration(rng.Intn(20))*time.Millisecond}
	}
	if rng.Intn(3) == 0 {
		s.SiteSize = 1 + rng.Intn(3)
		s.SiteExtra = time.Duration(rng.Intn(40)) * time.Millisecond
	}
	return s
}

// TestSpecRoundTrip: ParseSpec(s.String()) == s for random valid specs.
func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		s := randomSpec(rng)
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("spec %q failed to reparse: %v", s, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip changed spec:\n in: %#v (%q)\nout: %#v (%q)", s, s, got, got)
		}
	}
}

// TestSpecBuildProperties: every topology built from a valid spec has
// symmetric links, positive lookahead, and the declared shape.
func TestSpecBuildProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := randomSpec(rng)
		topo, err := s.Build()
		if err != nil {
			t.Fatalf("spec %q failed to build: %v", s, err)
		}
		if topo.NumPE() != s.NumPE() {
			t.Fatalf("spec %q: built %d PEs, want %d", s, topo.NumPE(), s.NumPE())
		}
		if topo.NumClusters() != s.NumClusters() {
			t.Fatalf("spec %q: built %d clusters, want %d", s, topo.NumClusters(), s.NumClusters())
		}
		if la := topo.Lookahead(); topo.NumPE() > 1 && la <= 0 {
			t.Fatalf("spec %q: non-positive lookahead %v", s, la)
		}
		// Symmetry over sampled PE pairs (all pairs when small).
		for trial := 0; trial < 64; trial++ {
			a, b := rng.Intn(topo.NumPE()), rng.Intn(topo.NumPE())
			la, lb := topo.LinkBetween(a, b), topo.LinkBetween(b, a)
			if la != lb {
				t.Fatalf("spec %q: asymmetric link %d<->%d: %+v vs %+v", s, a, b, la, lb)
			}
			if a != b && la.Delay(0) < topo.Lookahead() {
				t.Fatalf("spec %q: link %d->%d delay %v below lookahead %v", s, a, b, la.Delay(0), topo.Lookahead())
			}
		}
		// Speeds land on the right clusters.
		pe := 0
		for _, g := range s.Groups {
			for c := 0; c < g.Count; c++ {
				if got := topo.PESpeed(pe); got != g.Speed {
					t.Fatalf("spec %q: PE %d speed %v, want %v", s, pe, got, g.Speed)
				}
				pe += g.PEs
			}
		}
	}
}

// TestSpecDeterministicMesh: the same spec string always builds the same
// machine — mesh draws depend only on the seed, never on host state.
func TestSpecDeterministicMesh(t *testing.T) {
	const text = "3x4,2x2@0.5;wan=5ms;mesh=rand:9:2ms:20ms;site=2:30ms"
	s1, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := ParseSpec(text)
	t1, err := s1.Build()
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := s2.Build()
	for a := 0; a < t1.NumPE(); a++ {
		for b := 0; b < t1.NumPE(); b++ {
			if t1.LinkBetween(a, b) != t2.LinkBetween(a, b) {
				t.Fatalf("link %d->%d differs across identical builds", a, b)
			}
		}
	}
	// Mesh latencies stay inside [Min, Max + SiteExtra).
	for a := 0; a < t1.NumPE(); a++ {
		for b := 0; b < t1.NumPE(); b++ {
			if !t1.CrossesWAN(a, b) {
				continue
			}
			lat := t1.LinkBetween(a, b).Latency
			if lat < 2*time.Millisecond || lat >= 50*time.Millisecond {
				t.Fatalf("mesh latency %v for %d->%d outside [2ms, 20ms+30ms)", lat, a, b)
			}
		}
	}
}

// TestSpecValidationAggregates: a spec with several problems reports all
// of them in one error.
func TestSpecValidationAggregates(t *testing.T) {
	_, err := ParseSpec("0x8@-1;wan=-5ms;site=0:1ms")
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{"cluster count", "speed", "wan", "site"} {
		if !containsAll(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func containsAll(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// FuzzParseSpec: arbitrary inputs never panic; anything that parses must
// round-trip through String and build a symmetric machine with positive
// lookahead.
func FuzzParseSpec(f *testing.F) {
	f.Add("8")
	f.Add("2x4")
	f.Add("8x128,4x64@0.5;wan=5ms;mesh=rand:7:2ms:20ms;site=4:30ms")
	f.Add("1;intra=50us")
	f.Add("3@0.25,3@4;wan=1ms")
	f.Add("0x0;mesh=rand:0:0s:0s")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q failed to reparse: %v", s, text, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed spec %q: %#v vs %#v", text, s, back)
		}
		if s.NumPE() > 1<<14 {
			return // valid but big; skip the build to keep fuzzing fast
		}
		topo, err := s.Build()
		if err != nil {
			t.Fatalf("validated spec %q failed to build: %v", s, err)
		}
		n := topo.NumPE()
		for i := 0; i < 32; i++ {
			a, b := int(splitmix64(uint64(i))%uint64(n)), int(splitmix64(uint64(i)+99)%uint64(n))
			if topo.LinkBetween(a, b) != topo.LinkBetween(b, a) {
				t.Fatalf("spec %q: asymmetric link %d<->%d", s, a, b)
			}
		}
		if n > 1 && topo.Lookahead() <= 0 {
			t.Fatalf("spec %q: non-positive lookahead", s)
		}
	})
}
