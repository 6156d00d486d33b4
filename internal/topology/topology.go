// Package topology models the physical machine a GridMDO program runs on:
// a set of processing elements (PEs) grouped into clusters, with a link
// model (latency, bandwidth, per-message software overhead) between every
// pair of PEs.
//
// The paper's experimental setup — two clusters with half the processors
// each, joined by a high-latency wide-area link — is produced by
// TwoClusters. Arbitrary cluster layouts and per-cluster-pair latency
// overrides (the "delay device between arbitrary pairs of nodes"
// capability of VMI) are supported through New and SetClusterPairLatency.
package topology

import (
	"fmt"
	"time"
)

// ClusterID identifies one cluster within a Topology.
type ClusterID int

// Link describes the communication characteristics between a pair of PEs.
// The modeled delivery time of an n-byte message over a Link is
//
//	Overhead + Latency + n/Bandwidth
//
// Overhead is the per-message software cost (host side), Latency is the
// one-way wire flight time, and Bandwidth is in bytes per second.
type Link struct {
	Latency   time.Duration
	Overhead  time.Duration
	Bandwidth float64 // bytes per second; <= 0 means infinite
}

// Delay returns the modeled one-way delivery time for a message of n bytes.
func (l Link) Delay(n int) time.Duration {
	d := l.Overhead + l.Latency
	if l.Bandwidth > 0 && n > 0 {
		d += time.Duration(float64(n) / l.Bandwidth * float64(time.Second))
	}
	return d
}

// Era-typical defaults used throughout the reproduction: a Myrinet-class
// intra-cluster fabric and a wide-area TCP path (see DESIGN.md §5).
const (
	DefaultIntraOverhead = 10 * time.Microsecond
	DefaultInterOverhead = 60 * time.Microsecond
)

const (
	DefaultIntraBandwidth = 250e6 // bytes/s
	DefaultInterBandwidth = 30e6  // bytes/s
)

// Topology is an immutable-after-construction description of the machine.
// All methods are safe for concurrent use once the topology is built.
type Topology struct {
	numPE    int
	cluster  []ClusterID // per-PE cluster assignment
	clusters [][]int     // member PEs per cluster

	intra Link
	inter Link

	// clusterLinks overrides the inter link per cluster pair, keyed by
	// pairKey(a, b) over cluster IDs; nil when unused. It makes
	// heterogeneous WAN meshes affordable at thousands of PEs: one entry
	// per cluster pair, never one per PE pair.
	clusterLinks map[int64]Link

	// speed holds per-PE relative compute speed factors; nil means all 1.0
	speed []float64
}

func pairKey(a, b int) int64 { return int64(a)<<32 | int64(uint32(b)) }

// Option configures topology construction.
type Option func(*Topology)

// WithIntraLink overrides the default intra-cluster link model.
func WithIntraLink(l Link) Option { return func(t *Topology) { t.intra = l } }

// WithInterLatency sets only the inter-cluster one-way latency, keeping the
// default overhead and bandwidth. This is the knob the paper sweeps.
func WithInterLatency(d time.Duration) Option {
	return func(t *Topology) { t.inter.Latency = d }
}

// New builds a topology from explicit cluster sizes. PEs are numbered
// contiguously: cluster 0 holds PEs [0, sizes[0]), cluster 1 the next
// sizes[1] PEs, and so on. A negative link latency is rejected: it would run the
// virtual clock backwards.
func New(sizes []int, opts ...Option) (*Topology, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("topology: need at least one cluster")
	}
	t := &Topology{
		intra: Link{Latency: 0, Overhead: DefaultIntraOverhead, Bandwidth: DefaultIntraBandwidth},
		inter: Link{Latency: 0, Overhead: DefaultInterOverhead, Bandwidth: DefaultInterBandwidth},
	}
	for c, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("topology: cluster %d has non-positive size %d", c, n)
		}
		members := make([]int, 0, n)
		for i := 0; i < n; i++ {
			t.cluster = append(t.cluster, ClusterID(c))
			members = append(members, t.numPE)
			t.numPE++
		}
		t.clusters = append(t.clusters, members)
	}
	for _, o := range opts {
		o(t)
	}
	if t.intra.Latency < 0 || t.inter.Latency < 0 {
		return nil, fmt.Errorf("topology: negative latency (intra-cluster %v, inter-cluster %v)", t.intra.Latency, t.inter.Latency)
	}
	return t, nil
}

// TwoClusters builds the paper's standard environment: p PEs split evenly
// between two clusters (p must be even and positive), with the given
// one-way inter-cluster latency.
func TwoClusters(p int, interLatency time.Duration, opts ...Option) (*Topology, error) {
	if p <= 0 || p%2 != 0 {
		return nil, fmt.Errorf("topology: TwoClusters needs a positive even PE count, got %d", p)
	}
	opts = append([]Option{WithInterLatency(interLatency)}, opts...)
	return New([]int{p / 2, p / 2}, opts...)
}

// Single builds a one-cluster machine with p PEs (used for the paper's
// single-processor baselines and for unit tests).
func Single(p int, opts ...Option) (*Topology, error) {
	if p <= 0 {
		return nil, fmt.Errorf("topology: need a positive PE count, got %d", p)
	}
	return New([]int{p}, opts...)
}

// SetClusterPairLatency overrides the one-way latency between every PE of
// cluster a and every PE of cluster b (both directions), keeping the inter
// link's overhead and bandwidth, for heterogeneous WAN meshes. It must be
// called before the topology is shared across goroutines.
func (t *Topology) SetClusterPairLatency(a, b ClusterID, d time.Duration) error {
	l := t.inter
	l.Latency = d
	return t.SetClusterPairLink(a, b, l)
}

// SetClusterPairLink overrides the whole link model between a specific
// pair of clusters, in both directions. A negative latency is rejected.
func (t *Topology) SetClusterPairLink(a, b ClusterID, l Link) error {
	if int(a) < 0 || int(a) >= len(t.clusters) || int(b) < 0 || int(b) >= len(t.clusters) {
		return fmt.Errorf("topology: cluster pair (%d,%d) out of range [0,%d)", a, b, len(t.clusters))
	}
	if a == b {
		return fmt.Errorf("topology: cluster pair link needs two distinct clusters, got (%d,%d)", a, b)
	}
	if l.Latency < 0 {
		return fmt.Errorf("topology: negative latency %v for cluster pair (%d,%d)", l.Latency, a, b)
	}
	if t.clusterLinks == nil {
		t.clusterLinks = make(map[int64]Link)
	}
	t.clusterLinks[pairKey(int(a), int(b))] = l
	t.clusterLinks[pairKey(int(b), int(a))] = l
	return nil
}

// SetPESpeed sets a PE's relative compute speed (1.0 = the reference
// machine; 0.5 = half speed, i.e. work charges twice the time). It models
// heterogeneous co-allocations — e.g. one cluster a generation older than
// the other. It must be called before the topology is shared across
// goroutines. Non-positive values are rejected.
func (t *Topology) SetPESpeed(pe int, speed float64) error {
	if pe < 0 || pe >= t.numPE {
		return fmt.Errorf("topology: SetPESpeed of unknown PE %d", pe)
	}
	if speed <= 0 {
		return fmt.Errorf("topology: non-positive speed %v for PE %d", speed, pe)
	}
	if t.speed == nil {
		t.speed = make([]float64, t.numPE)
		for i := range t.speed {
			t.speed[i] = 1
		}
	}
	t.speed[pe] = speed
	return nil
}

// SetClusterSpeed sets the speed factor for every PE of a cluster.
func (t *Topology) SetClusterSpeed(c ClusterID, speed float64) error {
	if int(c) < 0 || int(c) >= len(t.clusters) {
		return fmt.Errorf("topology: SetClusterSpeed of unknown cluster %d", c)
	}
	for _, pe := range t.clusters[c] {
		if err := t.SetPESpeed(pe, speed); err != nil {
			return err
		}
	}
	return nil
}

// PESpeed reports a PE's relative compute speed factor.
func (t *Topology) PESpeed(pe int) float64 {
	if t.speed == nil {
		return 1
	}
	return t.speed[pe]
}

// NumPE reports the total number of processing elements.
func (t *Topology) NumPE() int { return t.numPE }

// NumClusters reports the number of clusters.
func (t *Topology) NumClusters() int { return len(t.clusters) }

// Cluster reports which cluster PE p belongs to.
func (t *Topology) Cluster(p int) ClusterID { return t.cluster[p] }

// PEs returns the member PEs of cluster c. The returned slice must not be
// modified.
func (t *Topology) PEs(c ClusterID) []int { return t.clusters[c] }

// CrossesWAN reports whether a message from a to b traverses the
// inter-cluster link.
func (t *Topology) CrossesWAN(a, b int) bool { return t.cluster[a] != t.cluster[b] }

// LinkBetween returns the link model used for messages from a to b,
// honoring cluster-pair overrides.
func (t *Topology) LinkBetween(a, b int) Link {
	if a == b {
		// Self-sends skip the network entirely; keep a nominal scheduler
		// hand-off cost so virtual-time runs are not unrealistically free.
		return Link{Overhead: time.Microsecond, Bandwidth: 0}
	}
	ca, cb := t.cluster[a], t.cluster[b]
	if ca == cb {
		return t.intra
	}
	if l, ok := t.clusterLinks[pairKey(int(ca), int(cb))]; ok {
		return l
	}
	return t.inter
}

// Lookahead reports the minimum zero-byte delivery delay over every link
// between two distinct PEs: LookaheadAcross with every PE its own group.
func (t *Topology) Lookahead() time.Duration {
	return t.LookaheadAcross(func(pe int) int { return pe })
}

// LookaheadAcross reports the minimum zero-byte delivery delay over the
// links whose endpoints lie in different groups, where group maps each PE
// to its group (a shard of the parallel virtual-time engine). It is that
// engine's conservative synchronization horizon: a message that crosses
// groups, sent at time t, arrives no earlier than t + LookaheadAcross, so
// the groups may run that much virtual time without coordinating. The
// intra link counts only if some cluster spans groups, a cluster-pair
// link only if its clusters are not both wholly inside one group. The
// cost is one pass over the PEs plus the cluster-pair override table —
// never a pass over PE pairs. The result is 0 when no link crosses groups or when
// one that does has no delay at all.
func (t *Topology) LookaheadAcross(group func(pe int) int) time.Duration {
	la := time.Duration(-1)
	consider := func(l Link) {
		if d := l.Delay(0); la < 0 || d < la {
			la = d
		}
	}
	// home[c] is cluster c's group, or -1 when its members span groups.
	home := make([]int, len(t.clusters))
	whole := make(map[int]int) // group -> clusters wholly inside it
	spans := false
	for c, members := range t.clusters {
		home[c] = group(members[0])
		for _, pe := range members[1:] {
			if group(pe) != home[c] {
				home[c], spans = -1, true
				break
			}
		}
		if home[c] >= 0 {
			whole[home[c]]++
		}
	}
	if spans {
		consider(t.intra)
	}
	crosses := func(a, b int) bool { return home[a] != home[b] || home[a] < 0 }
	// Ordered cluster pairs that cross groups: all of them, less those
	// whose clusters sit wholly inside the same group. The base inter link
	// applies unless a cluster-pair override covers every one of them.
	c := len(t.clusters)
	crossing := c * (c - 1)
	for _, n := range whole {
		crossing -= n * (n - 1)
	}
	for k, l := range t.clusterLinks {
		if crosses(int(k>>32), int(uint32(k))) {
			consider(l)
			crossing--
		}
	}
	if crossing > 0 {
		consider(t.inter)
	}
	if la < 0 {
		return 0
	}
	return la
}

// Latency is shorthand for LinkBetween(a, b).Latency.
func (t *Topology) Latency(a, b int) time.Duration { return t.LinkBetween(a, b).Latency }

// String summarizes the machine, e.g. "2 clusters × 8 PEs, WAN 4ms".
func (t *Topology) String() string {
	if len(t.clusters) == 1 {
		return fmt.Sprintf("1 cluster × %d PEs", t.numPE)
	}
	return fmt.Sprintf("%d clusters, %d PEs total, WAN %v", len(t.clusters), t.numPE, t.inter.Latency)
}
