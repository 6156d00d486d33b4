package core

import (
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
	// membership.go): the runtime binds its recovery hooks. A program with
	// a load balancer is refused.
	Membership *Membership

	// Lifecycle hooks bracket the program's execution (see Lifecycle).
	Lifecycle Lifecycle
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
