package core

import (
	"time"

	"gridmdo/internal/metrics"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// Options is the consolidated configuration record of a real-time
// Runtime. It is populated through the Option functions passed to
// NewRuntime — construction is the only time these knobs can be set, so
// every dependency (tracer, metrics registry, transport) is in place
// before the first message moves.
type Options struct {
	// Trace, if non-nil, receives scheduler events.
	Trace *trace.Tracer

	// Metrics, if non-nil, receives the runtime's counter/gauge/histogram
	// series (per-PE message flow, queue depths, handler and idle time,
	// delay-device occupancy). Registration happens at construction;
	// updates are allocation-free atomics.
	Metrics *metrics.Registry

	// Sinks are additional event receivers teed together with Trace and
	// the metrics adapter — the shared instrumentation surface of the
	// executor (see trace.Sink).
	Sinks []trace.Sink

	// PrioritizeWAN implements the paper's §6 proposal: messages that
	// cross cluster boundaries are tagged with a higher delivery priority
	// than local messages (unless the application already set one).
	PrioritizeWAN bool

	// Bundle combines the default-priority application messages each
	// handler sends to one destination PE into a single transport frame
	// (the Charm++ communication-optimization analog; see bundle.go).
	Bundle bool

	// RunToQuiescence ends the run when no messages remain anywhere in
	// the system (queues, handlers, delay devices, transport links),
	// detected by a wave-based counting protocol driven from PE 0 — see
	// quiesce.go. It works across processes; worker nodes still need the
	// coordinator's shutdown announcement to return from Run. Without
	// this option, the program must call Ctx.ExitWith.
	RunToQuiescence bool

	// Multi-process configuration. A nil Transport means all PEs live in
	// this process. Otherwise this process hosts PEs [PELo, PEHi), NodeOf
	// maps every PE to its owning process, and remote frames travel
	// through the stack, which NewRuntime completes with Stack.Bind.
	Transport *vmi.Stack
	NodeOf    func(pe int) int
	Node      int
	PELo      int
	PEHi      int

	// Membership, if non-nil, attaches an elastic-membership manager (see
	// membership.go): the runtime binds its recovery hooks, and the load
	// balancer consults it for placement and drain handling.
	Membership *Membership

	// Lifecycle hooks bracket the program's execution (see Lifecycle).
	Lifecycle Lifecycle

	// LatencyFor, if non-nil, overrides the topology's one-way latency
	// for the delay device — e.g. vmi.JitteredLatency for runs with
	// realistic wide-area variance.
	LatencyFor func(src, dst int32) time.Duration
}

// Option configures a Runtime at construction.
type Option func(*Options)

// WithTrace attaches a tracer to the runtime's event sink.
func WithTrace(t *trace.Tracer) Option {
	return func(o *Options) { o.Trace = t }
}

// WithMetrics attaches a metrics registry: the runtime registers its
// per-PE and delay-device series on it at construction, and transports
// built by vmi.NewChainBuilder share the same registry for per-device
// series.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *Options) { o.Metrics = reg }
}

// WithSink tees an additional event sink next to the tracer and metrics
// adapter.
func WithSink(s trace.Sink) Option {
	return func(o *Options) { o.Sinks = append(o.Sinks, s) }
}

// WithWANPriority enables the paper's §6 cross-cluster prioritization.
func WithWANPriority() Option {
	return func(o *Options) { o.PrioritizeWAN = true }
}

// WithBundling enables per-destination message bundling.
func WithBundling() Option {
	return func(o *Options) { o.Bundle = true }
}

// WithQuiescence ends the run by quiescence detection instead of an
// explicit ExitWith.
func WithQuiescence() Option {
	return func(o *Options) { o.RunToQuiescence = true }
}

// WithLatency overrides the topology's one-way latency function for the
// delay device.
func WithLatency(f func(src, dst int32) time.Duration) Option {
	return func(o *Options) { o.LatencyFor = f }
}

// ClusterConfig places this process in a multi-process run: the transport
// stack carrying remote frames, the PE→node map, and the contiguous local
// PE range.
type ClusterConfig struct {
	Transport  *vmi.Stack
	NodeOf     func(pe int) int
	Node       int
	PELo, PEHi int
}

// WithCluster configures the multi-process topology. NewRuntime binds its
// frame delivery and failure path to the stack. StartCluster is the
// in-repo caller: it also orders construction, listening and the address
// exchange, which callers of this option must do themselves.
func WithCluster(c ClusterConfig) Option {
	return func(o *Options) {
		o.Transport = c.Transport
		o.NodeOf = c.NodeOf
		o.Node = c.Node
		o.PELo = c.PELo
		o.PEHi = c.PEHi
	}
}

// WithMembership attaches an elastic-membership manager built with
// NewMembership. The manager must wrap the same vmi.Stack the cluster
// config passes as Transport.
func WithMembership(m *Membership) Option {
	return func(o *Options) { o.Membership = m }
}

// Lifecycle brackets a runtime's program-lifetime: OnStart fires on the
// Run goroutine after the schedulers launch (so Post and the location
// table are usable) and before Run blocks; OnExit fires with the run's
// outcome after the schedulers stop, before Run returns. Long-running
// embeddings — gridnode's gateway serving HTTP in front of a farm — use
// these to open their ingress only while the runtime can absorb work,
// and to fail pending requests when it no longer can.
type Lifecycle struct {
	OnStart func()
	OnExit  func(v any, err error)
}

// WithLifecycle installs program-lifetime hooks.
func WithLifecycle(lc Lifecycle) Option {
	return func(o *Options) { o.Lifecycle = lc }
}
