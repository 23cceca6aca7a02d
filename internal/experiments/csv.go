package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Each result type exposes CSV() — a header row plus data rows — so the
// series behind every figure can be written to disk and plotted directly
// (cmd/experiments -out).

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CSV returns the accuracy table (E1/E2).
func (r *AccuracyResult) CSV() [][]string {
	rows := [][]string{{"model", "mae", "rmse", "mape_pct", "smape_pct", "r2"}}
	for _, res := range r.Results {
		rep := res.Report
		rows = append(rows, []string{res.Model, f(rep.MAE), f(rep.RMSE), f(rep.MAPE), f(rep.SMAPE), f(rep.R2)})
	}
	return rows
}

// CSV returns the overlay series (E3).
func (r *OverlayResult) CSV() [][]string {
	rows := [][]string{{"t", "actual", "predicted"}}
	for i := range r.Actual {
		rows = append(rows, []string{strconv.Itoa(i), f(r.Actual[i]), f(r.Predicted[i])})
	}
	return rows
}

// CSV returns the ablation table (E4).
func (r *AblationResult) CSV() [][]string {
	rows := [][]string{{"variant", "mae", "rmse", "mape_pct", "r2"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Name, f(row.Report.MAE), f(row.Report.RMSE), f(row.Report.MAPE), f(row.Report.R2)})
	}
	return rows
}

// CSV returns the split-tracking series (E5).
func (r *GroupingResult) CSV() [][]string {
	if len(r.Bins) == 0 {
		return [][]string{{"phase", "bin"}}
	}
	n := len(r.Bins[0].Requested)
	header := []string{"phase", "bin"}
	for i := 0; i < n; i++ {
		header = append(header, fmt.Sprintf("requested_%d", i))
	}
	for i := 0; i < n; i++ {
		header = append(header, fmt.Sprintf("observed_%d", i))
	}
	rows := [][]string{header}
	for _, b := range r.Bins {
		row := []string{strconv.Itoa(b.Phase), strconv.Itoa(b.Bin)}
		for _, v := range b.Requested {
			row = append(row, f(v))
		}
		for _, v := range b.Observed {
			row = append(row, f(v))
		}
		rows = append(rows, row)
	}
	return rows
}

// CSV returns the reliability matrix (E6/E7).
func (r *ReliabilityResult) CSV() [][]string {
	rows := [][]string{{"system", "misbehaving", "throughput_tps", "avg_latency_ms", "p99_latency_ms", "failed_tps", "retained"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.System, strconv.Itoa(c.Misbehaving),
			f(c.ThroughputTPS), f(c.AvgLatencyMs), f(c.P99LatencyMs), f(c.FailedTPS),
			f(r.Degradation(c.System, c.Misbehaving)),
		})
	}
	return rows
}

// CSV returns the convergence series (E8).
func (r *ConvergenceResult) CSV() [][]string {
	rows := [][]string{{"epoch", "mean_loss"}}
	for i, l := range r.Losses {
		rows = append(rows, []string{strconv.Itoa(i), f(l)})
	}
	return rows
}

// CSV returns the sensitivity grid (E9) in long form.
func (r *SensitivityResult) CSV() [][]string {
	rows := [][]string{{"window", "horizon", "mape_pct"}}
	for i, w := range r.Windows {
		for j, h := range r.Horizons {
			rows = append(rows, []string{strconv.Itoa(w), strconv.Itoa(h), f(r.MAPE[i][j])})
		}
	}
	return rows
}

// CSV returns the reaction trace (E10/E10r).
func (r *ReactionResult) CSV() [][]string {
	rows := [][]string{{"step", "fault_active", "victim_flagged", "victim_ratio", "throughput_tps"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			strconv.Itoa(p.Step), strconv.FormatBool(p.FaultActive),
			strconv.FormatBool(p.VictimFlagged), f(p.VictimRatio), f(p.ThroughputTPS),
		})
	}
	return rows
}

// CSV returns the policy ablation table (E11).
func (r *PolicyAblationResult) CSV() [][]string {
	rows := [][]string{{"policy", "throughput_tps", "retained"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{c.Policy, f(c.ThroughputTPS), f(c.Retained)})
	}
	return rows
}

// WriteCSV writes rows produced by any result's CSV method.
func WriteCSV(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return fmt.Errorf("experiments: write csv: %w", err)
	}
	return nil
}
