package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTwoClustersLayout(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 32, 64} {
		topo, err := TwoClusters(p, 4*time.Millisecond)
		if err != nil {
			t.Fatalf("TwoClusters(%d): %v", p, err)
		}
		if topo.NumPE() != p {
			t.Fatalf("NumPE = %d, want %d", topo.NumPE(), p)
		}
		if topo.NumClusters() != 2 {
			t.Fatalf("NumClusters = %d, want 2", topo.NumClusters())
		}
		if got := len(topo.PEs(0)); got != p/2 {
			t.Fatalf("cluster 0 size = %d, want %d", got, p/2)
		}
		if got := len(topo.PEs(1)); got != p/2 {
			t.Fatalf("cluster 1 size = %d, want %d", got, p/2)
		}
		// PEs are numbered contiguously per cluster.
		for i := 0; i < p/2; i++ {
			if topo.Cluster(i) != 0 {
				t.Fatalf("PE %d in cluster %d, want 0", i, topo.Cluster(i))
			}
			if topo.Cluster(p/2+i) != 1 {
				t.Fatalf("PE %d in cluster %d, want 1", p/2+i, topo.Cluster(p/2+i))
			}
		}
	}
}

func TestTwoClustersRejectsOddAndNonPositive(t *testing.T) {
	for _, p := range []int{-2, 0, 1, 3, 7} {
		if _, err := TwoClusters(p, 0); err == nil {
			t.Errorf("TwoClusters(%d) accepted, want error", p)
		}
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) accepted, want error")
	}
	if _, err := New([]int{4, 0}); err == nil {
		t.Error("New with zero-size cluster accepted, want error")
	}
}

func TestLatencyClasses(t *testing.T) {
	wan := 10 * time.Millisecond
	topo, err := TwoClusters(8, wan)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Latency(0, 1); got != 0 {
		t.Errorf("intra latency = %v, want 0", got)
	}
	if got := topo.Latency(0, 4); got != wan {
		t.Errorf("inter latency = %v, want %v", got, wan)
	}
	if !topo.CrossesWAN(3, 4) {
		t.Error("CrossesWAN(3,4) = false, want true")
	}
	if topo.CrossesWAN(4, 7) {
		t.Error("CrossesWAN(4,7) = true, want false")
	}
	if topo.inter.Latency != wan {
		t.Errorf("inter-cluster latency = %v, want %v", topo.inter.Latency, wan)
	}
}

func TestSelfLinkIsCheap(t *testing.T) {
	topo, err := TwoClusters(4, 8*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l := topo.LinkBetween(2, 2)
	if l.Latency != 0 {
		t.Errorf("self link latency = %v, want 0", l.Latency)
	}
	if l.Delay(1<<20) > 10*time.Microsecond {
		t.Errorf("self link delay for 1MiB = %v, want tiny", l.Delay(1<<20))
	}
}

func TestLinkDelay(t *testing.T) {
	l := Link{Latency: time.Millisecond, Overhead: 10 * time.Microsecond, Bandwidth: 1e6}
	// 1000 bytes at 1 MB/s = 1 ms serialization.
	got := l.Delay(1000)
	want := time.Millisecond + 10*time.Microsecond + time.Millisecond
	if got != want {
		t.Errorf("Delay(1000) = %v, want %v", got, want)
	}
	// Infinite bandwidth ignores size.
	l.Bandwidth = 0
	if got := l.Delay(1 << 30); got != time.Millisecond+10*time.Microsecond {
		t.Errorf("Delay with infinite bandwidth = %v", got)
	}
}

// Property: latency is symmetric in cluster class for every pair, and
// every PE belongs to exactly one cluster whose member list contains it.
func TestTopologyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(8)
		}
		topo, err := New(sizes, WithInterLatency(time.Duration(rng.Intn(100))*time.Millisecond))
		if err != nil {
			return false
		}
		for a := 0; a < topo.NumPE(); a++ {
			found := false
			for _, pe := range topo.PEs(topo.Cluster(a)) {
				if pe == a {
					found = true
				}
			}
			if !found {
				return false
			}
			for b := 0; b < topo.NumPE(); b++ {
				if topo.Latency(a, b) != topo.Latency(b, a) {
					return false
				}
				if (topo.Cluster(a) == topo.Cluster(b)) == topo.CrossesWAN(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLinkOptions(t *testing.T) {
	intra := Link{Latency: time.Microsecond, Overhead: time.Microsecond, Bandwidth: 1e9}
	inter := Link{Latency: 7 * time.Millisecond, Overhead: 50 * time.Microsecond, Bandwidth: 1e7}
	topo, err := TwoClusters(4, 0, WithIntraLink(intra))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetClusterPairLink(0, 1, inter); err != nil {
		t.Fatal(err)
	}
	if got := topo.LinkBetween(0, 1); got != intra {
		t.Errorf("intra link = %+v", got)
	}
	if got := topo.LinkBetween(0, 2); got != inter {
		t.Errorf("inter link = %+v", got)
	}
	// A negative latency would run the virtual clock backwards.
	if _, err := TwoClusters(4, -time.Millisecond); err == nil {
		t.Error("negative inter-cluster latency accepted")
	}
	if _, err := Single(4, WithIntraLink(Link{Latency: -1})); err == nil {
		t.Error("negative intra-cluster latency accepted")
	}
	if err := topo.SetClusterPairLatency(0, 1, -time.Millisecond); err == nil {
		t.Error("negative cluster-pair latency accepted")
	}
}

func TestSpeedFactors(t *testing.T) {
	topo, err := TwoClusters(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetPESpeed(2, 0.5); err != nil {
		t.Fatal(err)
	}
	if topo.PESpeed(2) != 0.5 || topo.PESpeed(0) != 1 {
		t.Errorf("speeds: %v %v", topo.PESpeed(2), topo.PESpeed(0))
	}
	if err := topo.SetClusterSpeed(0, 2); err != nil {
		t.Fatal(err)
	}
	if topo.PESpeed(0) != 2 || topo.PESpeed(1) != 2 {
		t.Error("cluster speed not applied")
	}
	if err := topo.SetPESpeed(-1, 1); err == nil {
		t.Error("negative PE accepted")
	}
	if err := topo.SetPESpeed(0, 0); err == nil {
		t.Error("zero speed accepted")
	}
	if err := topo.SetClusterSpeed(5, 1); err == nil {
		t.Error("unknown cluster accepted")
	}
}

func TestStringForms(t *testing.T) {
	one, _ := Single(4)
	if one.String() == "" {
		t.Error("empty String for single cluster")
	}
	two, _ := TwoClusters(4, time.Millisecond)
	if two.String() == "" {
		t.Error("empty String for two clusters")
	}
}

// TestLookaheadAcross: only links that cross a group boundary bound the
// horizon — the intra link when a cluster is split, a cluster-pair link
// when its clusters are in different groups, a PE-pair override when its
// PEs are.
func TestLookaheadAcross(t *testing.T) {
	intra := Link{Overhead: 10 * time.Microsecond}
	topo, err := New([]int{2, 2, 2},
		WithIntraLink(intra), WithInterLatency(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetClusterPairLatency(0, 1, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	byCluster := func(pe int) int { return int(topo.Cluster(pe)) }
	if got := topo.LookaheadAcross(byCluster); got != 2*time.Millisecond+DefaultInterOverhead {
		t.Errorf("cluster groups: %v, want the 2ms cluster-pair link plus the inter overhead", got)
	}
	if got := topo.Lookahead(); got != intra.Delay(0) {
		t.Errorf("Lookahead: %v, want the intra link %v", got, intra.Delay(0))
	}
	// Clusters 0 and 1 share a group: only links to cluster 2 cross.
	merged := func(pe int) int { return int(topo.Cluster(pe)) / 2 }
	if got := topo.LookaheadAcross(merged); got != 5*time.Millisecond+DefaultInterOverhead {
		t.Errorf("merged groups: %v, want the 5ms base inter link plus its overhead", got)
	}
	// Splitting a cluster exposes the intra link.
	split := func(pe int) int { return pe / 3 }
	if got := topo.LookaheadAcross(split); got != intra.Delay(0) {
		t.Errorf("split cluster: %v, want %v", got, intra.Delay(0))
	}
	if got := topo.LookaheadAcross(func(int) int { return 0 }); got != 0 {
		t.Errorf("one group: %v, want 0", got)
	}
}
