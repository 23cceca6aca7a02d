package obs_test

import (
	"fmt"
	"os"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/obs"
)

// ExampleRegistry shows the metrics pipeline end to end: instruments and
// a custom collector registered on a registry, rendered as the Prometheus
// text format served at /metrics.
func ExampleRegistry() {
	reg := obs.NewRegistry()

	requests := obs.NewCounter("myapp_requests_total", "Requests handled.")
	requests.Add(17)
	reg.Register(requests)

	reg.Register(obs.CollectorFunc(func() []obs.Family {
		return []obs.Family{{
			Name: "myapp_queue_length", Help: "Jobs waiting.", Type: obs.TypeGauge,
			Samples: []obs.Sample{
				{Labels: []obs.Label{{Name: "queue", Value: "ingest"}}, Value: 4},
			},
		}}
	}))

	reg.WritePrometheus(os.Stdout)
	// Output:
	// # HELP myapp_queue_length Jobs waiting.
	// # TYPE myapp_queue_length gauge
	// myapp_queue_length{queue="ingest"} 4
	// # HELP myapp_requests_total Requests handled.
	// # TYPE myapp_requests_total counter
	// myapp_requests_total 17
}

// ExampleLogger pins the structured event log's deterministic mode: with
// an injected clock, identical inputs render identical text.
func ExampleLogger() {
	sink := obs.NewMemorySink(0)
	logger := obs.NewLogger(sink, obs.LevelInfo).
		WithClock(func() int64 { return 1700000000000000000 })

	logger.Debug("filtered out")
	logger.Info("rebalance", obs.String("topology", "wordcount"), obs.String("workers", "4"))
	// The same logger doubles as the engine's dsps.EventSink.
	logger.Event(dsps.EventWarn, "fault injected", "worker", "worker-1")
	for _, r := range sink.Records() {
		fmt.Println(r.TimeNs, r.Level, r.Msg, r.Attrs)
	}
	// Output:
	// 1700000000000000000 INFO rebalance [{topology wordcount} {workers 4}]
	// 1700000000000000000 WARN fault injected [{worker worker-1}]
}

// Example_tupleTracing runs a topology with the deterministic trace
// sampler at full rate and tallies the sampled spans: one emit per root
// plus one exec per bolt execution of its descendants.
func Example_tupleTracing() {
	next := 0
	var collector dsps.SpoutCollector
	builder := dsps.NewTopologyBuilder("traced")
	builder.SetSpout("src", func() dsps.Spout {
		return &dsps.SpoutFunc{
			OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { collector = c },
			NextFn: func() bool {
				if next >= 5 {
					return false
				}
				collector.Emit(dsps.Values{next}, next)
				next++
				return true
			},
		}
	}, 1, "n")
	builder.SetBolt("sink", func() dsps.Bolt {
		return &dsps.BoltFunc{ExecuteFn: func(*dsps.Tuple, dsps.OutputCollector) {}}
	}, 1).ShuffleGrouping("src")
	topo, _ := builder.Build()

	cluster := dsps.NewCluster(dsps.ClusterConfig{
		Nodes: 1, Delayer: dsps.NopDelayer{},
		TraceSampleRate: 1, // sample every root; 0.01 is a typical production rate
	})
	cluster.Submit(topo, dsps.SubmitConfig{})
	defer cluster.Shutdown()
	cluster.Drain(5 * time.Second)

	emits, execs := 0, 0
	for _, span := range cluster.Trace().Spans() {
		switch span.Kind {
		case dsps.SpanEmit:
			emits++
		case dsps.SpanExec:
			execs++
		}
	}
	fmt.Printf("emits=%d execs=%d\n", emits, execs)
	// Export with obs.WriteTraceJSON / obs.WriteChromeTrace, or serve
	// /trace.json via obs.NewServer.
	// Output: emits=5 execs=5
}
