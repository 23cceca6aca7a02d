package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"predstream/internal/cluster"
	"predstream/internal/core"
	"predstream/internal/obs"
)

// coordinatorConfig carries the -coordinator mode flags out of run().
type coordinatorConfig struct {
	listen         string
	expect         int
	joinWait       time.Duration
	duration       time.Duration
	statsEvery     time.Duration
	heartbeatEvery time.Duration
	deadAfter      time.Duration
	metricsEvery   time.Duration
	control        bool
	controlPeriod  time.Duration
	obsAddr        string
	shutdown       bool
}

// runCoordinator is dspsim's fleet-control-plane mode: it listens for
// predworker processes, waits for the expected fleet to join, optionally
// runs one predictive control loop per worker over the wire, and prints
// fleet statistics until the duration elapses. See docs/CLUSTER.md for
// the two-terminal walkthrough.
func runCoordinator(cc coordinatorConfig, stdout, stderr io.Writer) error {
	var events *obs.Logger
	var sink *obs.MemorySink
	if cc.obsAddr != "" {
		sink = obs.NewMemorySink(1024)
		events = obs.NewLogger(sink, obs.LevelDebug)
	}
	ccfg := cluster.CoordinatorConfig{
		HeartbeatEvery: cc.heartbeatEvery,
		DeadAfter:      cc.deadAfter,
		MetricsEvery:   cc.metricsEvery,
	}
	if events != nil {
		ccfg.Events = events
	}
	coord, err := cluster.NewCoordinator(cc.listen, ccfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	fmt.Fprintf(stdout, "coordinator listening on %s (expecting %d workers)\n",
		coord.Addr(), cc.expect)

	if cc.obsAddr != "" {
		reg := obs.NewRegistry()
		// The coordinator's merged fleet snapshot feeds the standard engine
		// metric families, worker-prefixed.
		reg.Register(obs.NewClusterCollector(coord))
		reg.Register(obs.NewRuntimeCollector())
		srv, err := obs.NewServer(cc.obsAddr, obs.ServerConfig{Registry: reg, Events: sink, Snapshots: coord})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability listening on %s (/metrics /healthz /events /snapshot /debug/pprof)\n", srv.Addr())
	}

	if cc.expect > 0 {
		if err := coord.WaitForWorkers(cc.expect, cc.joinWait); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fleet complete: %d workers joined\n", cc.expect)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cc.duration)
	defer cancel()
	if cc.control {
		if err := startRemoteControl(ctx, coord, cc, stdout, stderr); err != nil {
			return err
		}
	}

	ticker := time.NewTicker(cc.statsEvery)
	defer ticker.Stop()
	start := time.Now()
	prev := coord.Snapshot()
	for {
		select {
		case <-ctx.Done():
			final := coord.Snapshot()
			st := coord.Stats()
			fmt.Fprintf(stdout, "\nfinal: workers=%d acked=%d failed=%d joins=%d leaves=%d expiries=%d\n",
				st.Live, final.TotalAcked(), final.TotalFailed(), st.Joins, st.Leaves, st.Expiries)
			if cc.shutdown {
				coord.ShutdownWorkers()
				fmt.Fprintln(stdout, "sent shutdown to all workers")
			}
			return nil
		case <-ticker.C:
		}
		snap := coord.Snapshot()
		dt := snap.At.Sub(prev.At).Seconds()
		acked := float64(snap.TotalAcked()-prev.TotalAcked()) / dt
		prev = snap
		st := coord.Stats()
		fmt.Fprintf(stdout, "[%5.1fs] workers=%d acked/s=%7.0f joins=%d leaves=%d",
			time.Since(start).Seconds(), st.Live, acked, st.Joins, st.Leaves)
		workers := coord.Workers()
		sort.Slice(workers, func(i, j int) bool { return workers[i].Name < workers[j].Name })
		for _, w := range workers {
			fmt.Fprintf(stdout, "  %s(g%d,inflight=%d)", w.Name, w.Generation, w.InFlight)
		}
		fmt.Fprintln(stdout)
	}
}

// startRemoteControl launches one predictive control loop per joined
// worker, each steering that worker's controlled components through the
// wire (RemoteEngine + RemoteGrouping behind the same core interfaces the
// in-process loop uses).
func startRemoteControl(ctx context.Context, coord *cluster.Coordinator, cc coordinatorConfig, stdout, stderr io.Writer) error {
	for _, w := range coord.Workers() {
		if len(w.Controlled) == 0 {
			fmt.Fprintf(stdout, "control: worker %s exposes no controlled components, skipping\n", w.Name)
			continue
		}
		eng, err := coord.Engine(w.Name)
		if err != nil {
			return err
		}
		targets := make([]core.ControlTarget, 0, len(w.Controlled))
		for _, comp := range w.Controlled {
			targets = append(targets, core.ControlTarget{
				Component: comp,
				Grouping:  coord.Grouping(w.Name, comp),
			})
		}
		ctrl, err := core.NewController(eng, targets, core.Config{Policy: core.PolicyBypass})
		if err != nil {
			return err
		}
		name := w.Name
		go func() {
			if err := ctrl.Run(ctx, cc.controlPeriod); err != nil && ctx.Err() == nil {
				fmt.Fprintf(stderr, "control loop %s: %v\n", name, err)
			}
		}()
		fmt.Fprintf(stdout, "control: steering %s components %v every %v\n",
			name, w.Controlled, cc.controlPeriod)
	}
	return nil
}
