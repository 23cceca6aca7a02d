package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"predstream/internal/scenario"
	"predstream/internal/stats"
	"predstream/internal/timeseries"
)

func TestCSVShapes(t *testing.T) {
	acc := &AccuracyResult{
		App:     AppURLCount,
		Horizon: 1,
		Results: []*timeseries.EvalResult{
			{Model: "DRNN", Report: stats.Report{Model: "DRNN", MAE: 1, RMSE: 2, MAPE: 3, SMAPE: 4, R2: 0.5}},
		},
	}
	checkCSV(t, acc.CSV(), 2, 6)

	ov := &OverlayResult{Model: "DRNN", Actual: []float64{1, 2}, Predicted: []float64{1.1, 2.1}}
	checkCSV(t, ov.CSV(), 3, 3)

	ab := &AblationResult{Rows: []AblationRow{{Name: "v", Report: stats.Report{}}}}
	checkCSV(t, ab.CSV(), 2, 5)

	gr := &GroupingResult{Bins: []GroupingBin{
		{Phase: 0, Bin: 0, Requested: []float64{0.5, 0.5}, Observed: []float64{0.5, 0.5}},
	}}
	checkCSV(t, gr.CSV(), 2, 6)
	if got := (&GroupingResult{}).CSV(); len(got) != 1 {
		t.Fatalf("empty grouping CSV = %v", got)
	}

	rel := &ReliabilityResult{Cells: []ReliabilityCell{{System: "framework", Summary: scenario.Summary{ThroughputTPS: 10}}}}
	checkCSV(t, rel.CSV(), 2, 7)

	conv := &ConvergenceResult{Losses: []float64{0.5, 0.4}}
	checkCSV(t, conv.CSV(), 3, 2)

	sens := &SensitivityResult{Windows: []int{5}, Horizons: []int{1, 3}, MAPE: [][]float64{{7, 8}}}
	checkCSV(t, sens.CSV(), 3, 3)

	react := &ReactionResult{Points: []ReactionPoint{{Step: 0, VictimRatio: 0.25}}}
	checkCSV(t, react.CSV(), 2, 5)

	pol := &PolicyAblationResult{Cells: []PolicyCell{{Policy: "bypass", ThroughputTPS: 10, Retained: 0.8}}}
	checkCSV(t, pol.CSV(), 2, 3)
}

// checkCSV verifies row count, uniform width, and that the rows survive a
// WriteCSV round-trip as valid CSV.
func checkCSV(t *testing.T, rows [][]string, wantRows, wantCols int) {
	t.Helper()
	if len(rows) != wantRows {
		t.Fatalf("rows = %d want %d (%v)", len(rows), wantRows, rows)
	}
	for i, r := range rows {
		if len(r) != wantCols {
			t.Fatalf("row %d has %d cols want %d (%v)", i, len(r), wantCols, r)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	parsed, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != wantRows {
		t.Fatalf("round-trip rows = %d", len(parsed))
	}
}
