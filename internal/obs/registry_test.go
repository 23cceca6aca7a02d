package obs

import (
	"reflect"
	"testing"
)

func TestRegistryGatherMergesAndSorts(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func() []Family {
		return []Family{
			{Name: "zeta", Type: TypeGauge, Samples: []Sample{{Value: 1}}},
			{Name: "alpha", Help: "first", Type: TypeCounter, Samples: []Sample{{Value: 2}}},
		}
	}))
	r.Register(CollectorFunc(func() []Family {
		return []Family{
			// Same family from a second collector: samples merge, the
			// first collector's help/type win.
			{Name: "alpha", Help: "ignored", Type: TypeGauge, Samples: []Sample{{Value: 3}}},
		}
	}))
	r.Register(nil) // must be a no-op

	fams := r.Gather()
	if len(fams) != 2 {
		t.Fatalf("gathered %d families, want 2", len(fams))
	}
	if fams[0].Name != "alpha" || fams[1].Name != "zeta" {
		t.Fatalf("family order = %s, %s", fams[0].Name, fams[1].Name)
	}
	a := fams[0]
	if a.Help != "first" || a.Type != TypeCounter {
		t.Fatalf("merge did not keep first collector's metadata: %+v", a)
	}
	if len(a.Samples) != 2 || a.Samples[0].Value != 2 || a.Samples[1].Value != 3 {
		t.Fatalf("merged samples = %+v", a.Samples)
	}
}

func TestCounterAndGaugeInstruments(t *testing.T) {
	c := NewCounter("reqs_total", "Requests.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	fams := c.Collect()
	if len(fams) != 1 || fams[0].Type != TypeCounter || fams[0].Samples[0].Value != 5 {
		t.Fatalf("counter families = %+v", fams)
	}

	// Gauges are collector families read at scrape time.
	g := CollectorFunc(func() []Family {
		return []Family{{Name: "temp", Help: "Temperature.", Type: TypeGauge, Samples: []Sample{{Value: -3}}}}
	})

	r := NewRegistry()
	r.Register(c)
	r.Register(g)
	names := []string{}
	for _, f := range r.Gather() {
		names = append(names, f.Name)
	}
	if !reflect.DeepEqual(names, []string{"reqs_total", "temp"}) {
		t.Fatalf("names = %v", names)
	}
}

func TestHistogramDataTotal(t *testing.T) {
	h := &HistogramData{Bounds: []float64{1, 2}, Counts: []uint64{3, 4, 5}, Sum: 9}
	if h.Total() != 12 {
		t.Fatalf("total = %d, want 12", h.Total())
	}
}
