package dsps

import (
	"strings"
	"testing"
)

func dummySpout() Spout { return &SpoutFunc{} }
func dummyBolt() Bolt   { return &BoltFunc{} }

func TestBuildValidTopology(t *testing.T) {
	b := NewTopologyBuilder("demo")
	b.SetSpout("src", dummySpout, 2, "word")
	b.SetBolt("mid", dummyBolt, 3, "word").ShuffleGrouping("src")
	b.SetBolt("sink", dummyBolt, 1).FieldsGrouping("mid", "word")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Components(); len(got) != 3 || got[0] != "src" {
		t.Fatalf("Components = %v", got)
	}
	if topo.Parallelism("mid") != 3 || topo.Parallelism("nope") != 0 {
		t.Fatal("Parallelism lookup wrong")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *TopologyBuilder
		want  string
	}{
		{"no spouts", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetBolt("b", dummyBolt, 1).ShuffleGrouping("ghost")
			return b
		}, "no spouts"},
		{"empty spout name", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("", dummySpout, 1)
			return b
		}, "empty spout name"},
		{"nil spout factory", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("s", nil, 1)
			return b
		}, "nil factory"},
		{"bad parallelism", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("s", dummySpout, 0)
			return b
		}, "parallelism"},
		{"duplicate name", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("s", dummySpout, 1)
			b.SetBolt("s", dummyBolt, 1).ShuffleGrouping("s")
			return b
		}, "duplicate"},
		{"unknown source", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("s", dummySpout, 1)
			b.SetBolt("b", dummyBolt, 1).ShuffleGrouping("ghost")
			return b
		}, "unknown component"},
		{"no subscription", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("s", dummySpout, 1)
			b.SetBolt("b", dummyBolt, 1)
			return b
		}, "subscribes to nothing"},
		{"self subscription", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("s", dummySpout, 1)
			b.SetBolt("b", dummyBolt, 1).ShuffleGrouping("b")
			return b
		}, "itself"},
		{"fields grouping without fields", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("s", dummySpout, 1)
			b.SetBolt("b", dummyBolt, 1).FieldsGrouping("s")
			return b
		}, "no fields"},
		{"cycle", func() *TopologyBuilder {
			b := NewTopologyBuilder("x")
			b.SetSpout("s", dummySpout, 1)
			b.SetBolt("b1", dummyBolt, 1, "f").ShuffleGrouping("s").ShuffleGrouping("b2")
			b.SetBolt("b2", dummyBolt, 1, "f").ShuffleGrouping("b1")
			return b
		}, "cycle"},
	}
	for _, tc := range cases {
		_, err := tc.build().Build()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDynamicGroupingDeclarerReturnsHandle(t *testing.T) {
	b := NewTopologyBuilder("x")
	b.SetSpout("s", dummySpout, 1, "v")
	g := b.SetBolt("b", dummyBolt, 2).DynamicGrouping("s")
	if g == nil {
		t.Fatal("nil grouping handle")
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if err := g.SetRatios([]float64{1, 3}); err != nil {
		t.Fatal(err)
	}
}
