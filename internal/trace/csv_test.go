package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := Synthetic(SyntheticConfig{Workers: 3, Steps: 20, Seed: 9})
	for i := 10; i < 20; i++ {
		orig["worker-1"][i].Misbehaving = true
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("workers %d vs %d", len(back), len(orig))
	}
	for id, wins := range orig {
		got := back[id]
		if len(got) != len(wins) {
			t.Fatalf("%s windows %d vs %d", id, len(got), len(wins))
		}
		for i := range wins {
			a, b := wins[i], got[i]
			if a.WorkerID != b.WorkerID || a.NodeID != b.NodeID ||
				!a.Start.Equal(b.Start) || !a.End.Equal(b.End) ||
				a.ExecRate != b.ExecRate || a.AvgExecMs != b.AvgExecMs ||
				a.AvgQueueMs != b.AvgQueueMs || a.QueueLen != b.QueueLen ||
				a.Misbehaving != b.Misbehaving ||
				a.CoWorkers != b.CoWorkers || a.CoExecRate != b.CoExecRate ||
				a.CoAvgExecMs != b.CoAvgExecMs || a.NodeBusy != b.NodeBusy {
				t.Fatalf("%s window %d mismatch:\n%+v\n%+v", id, i, a, b)
			}
		}
	}
}

func TestCSVReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"short header":   "worker,node\n",
		"wrong column":   strings.Replace(strings.Join(csvHeader, ","), "exec_rate", "rate", 1) + "\n",
		"bad start":      strings.Join(csvHeader, ",") + "\nw,n,abc,1,1,1,1,1,1,false,0,0,0,0\n",
		"bad float":      strings.Join(csvHeader, ",") + "\nw,n,1,2,xx,1,1,1,1,false,0,0,0,0\n",
		"bad bool":       strings.Join(csvHeader, ",") + "\nw,n,1,2,1,1,1,1,1,maybe,0,0,0,0\n",
		"bad tail float": strings.Join(csvHeader, ",") + "\nw,n,1,2,1,1,1,1,1,false,zz,0,0,0\n",
	}
	for name, input := range cases {
		if _, err := ReadCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCSVEmptyTraceWritesHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("empty trace round-trip has %d workers", len(back))
	}
}
