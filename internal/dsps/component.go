package dsps

// TopologyContext tells a component instance where it runs.
type TopologyContext struct {
	// Component is the component name from the topology builder.
	Component string
	// TaskIndex is this instance's index within the component, in
	// [0, NumTasks).
	TaskIndex int
	// TaskID is the globally unique task id within the topology.
	TaskID int
	// NumTasks is the component's parallelism.
	NumTasks int
	// WorkerID identifies the worker process this task is assigned to.
	WorkerID string
	// NodeID identifies the machine hosting the worker.
	NodeID string
}

// SpoutCollector is how a spout emits tuples into the topology.
type SpoutCollector interface {
	// Emit sends a tuple. A non-nil msgID enables reliability tracking:
	// the spout's Ack or Fail will eventually be called with it.
	Emit(values Values, msgID any)
}

// Spout is a stream source, mirroring Storm's spout contract.
type Spout interface {
	// Open is called once per task before any NextTuple.
	Open(ctx TopologyContext, collector SpoutCollector)
	// NextTuple emits zero or more tuples via the collector and reports
	// whether it did any work; on false the executor asks again after a
	// completion (Ack or Fail) arrives or a short interval passes.
	NextTuple() bool
	// Ack signals that the tuple tree rooted at msgID fully processed.
	Ack(msgID any)
	// Fail signals that the tuple tree rooted at msgID failed or timed
	// out.
	Fail(msgID any)
	// Close is called once on shutdown.
	Close()
}

// OutputCollector is how a bolt emits tuples. Emitted tuples are
// automatically anchored to the input tuple being executed, and the input
// is automatically acked when Execute returns (Storm "basic bolt"
// semantics) unless Fail was called.
type OutputCollector interface {
	// Emit sends a tuple downstream, anchored to the current input.
	Emit(values Values)
	// Fail marks the current input tuple as failed; its root spout tuple
	// will be failed immediately.
	Fail()
}

// Bolt is a stream transformer/sink, mirroring Storm's basic-bolt
// contract.
type Bolt interface {
	// Prepare is called once per task before any Execute.
	Prepare(ctx TopologyContext, collector OutputCollector)
	// Execute processes one input tuple, emitting via the collector given
	// to Prepare.
	Execute(t *Tuple)
	// Cleanup is called once on shutdown.
	Cleanup()
}

// BaseSpout provides no-op Ack/Fail/Close so simple spouts only implement
// Open and NextTuple.
type BaseSpout struct{}

// Ack implements Spout.
func (BaseSpout) Ack(any) {}

// Fail implements Spout.
func (BaseSpout) Fail(any) {}

// Close implements Spout.
func (BaseSpout) Close() {}

// BaseBolt provides a no-op Cleanup.
type BaseBolt struct{}

// Cleanup implements Bolt.
func (BaseBolt) Cleanup() {}

// SpoutFunc adapts an emit-loop function into a Spout for tests and small
// examples.
type SpoutFunc struct {
	BaseSpout
	OpenFn func(ctx TopologyContext, c SpoutCollector)
	NextFn func() bool

	collector SpoutCollector
}

// Open implements Spout.
func (s *SpoutFunc) Open(ctx TopologyContext, c SpoutCollector) {
	s.collector = c
	if s.OpenFn != nil {
		s.OpenFn(ctx, c)
	}
}

// NextTuple implements Spout.
func (s *SpoutFunc) NextTuple() bool {
	if s.NextFn == nil {
		return false
	}
	return s.NextFn()
}

// BoltFunc adapts a function into a Bolt.
type BoltFunc struct {
	BaseBolt
	PrepareFn func(ctx TopologyContext, c OutputCollector)
	ExecuteFn func(t *Tuple, c OutputCollector)

	collector OutputCollector
}

// Prepare implements Bolt.
func (b *BoltFunc) Prepare(ctx TopologyContext, c OutputCollector) {
	b.collector = c
	if b.PrepareFn != nil {
		b.PrepareFn(ctx, c)
	}
}

// Execute implements Bolt.
func (b *BoltFunc) Execute(t *Tuple) {
	if b.ExecuteFn != nil {
		b.ExecuteFn(t, b.collector)
	}
}
