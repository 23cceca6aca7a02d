package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// ProcController abstracts a set of real worker OS processes a proc
// script can disrupt. internal/cluster's end-to-end tests implement it
// over real processes (ProcSet); other tests may substitute fakes to
// exercise the runner without spawning processes.
type ProcController interface {
	// Procs returns the managed worker names; ProcEvent.Proc indexes it.
	Procs() []string
	// Kill terminates process i abruptly (SIGKILL).
	Kill(i int) error
	// Restart (re)launches process i, killing any running instance first.
	Restart(i int) error
	// Freeze suspends process i (SIGSTOP): alive but silent, the
	// signature of a hung worker.
	Freeze(i int) error
	// Thaw resumes a frozen process i (SIGCONT).
	Thaw(i int) error
}

// ProcKind discriminates process-chaos events.
type ProcKind int

const (
	// ProcKill terminates the targeted worker process (SIGKILL).
	ProcKill ProcKind = iota
	// ProcRestart relaunches the targeted worker process; it rejoins the
	// coordinator under the same name with a bumped generation.
	ProcRestart
	// ProcFreeze suspends the targeted process (SIGSTOP) so it misses
	// heartbeats without dropping its connection.
	ProcFreeze
	// ProcThaw resumes a frozen process (SIGCONT); its next read fails
	// (the coordinator closed the expired connection) and it reconnects.
	ProcThaw
)

// String implements fmt.Stringer.
func (k ProcKind) String() string {
	switch k {
	case ProcKill:
		return "proc-kill"
	case ProcRestart:
		return "proc-restart"
	case ProcFreeze:
		return "proc-freeze"
	case ProcThaw:
		return "proc-thaw"
	default:
		return fmt.Sprintf("ProcKind(%d)", int(k))
	}
}

// ProcEvent is one timed action against a worker process.
type ProcEvent struct {
	// At is the firing time as an offset from the start of the run.
	At   time.Duration
	Kind ProcKind
	// Proc indexes ProcController.Procs.
	Proc int
}

// String implements fmt.Stringer.
func (e ProcEvent) String() string {
	return fmt.Sprintf("%s %s #%d", e.At.Round(time.Millisecond), e.Kind, e.Proc)
}

// ProcScript is a deterministic process-disruption timeline. Like Script,
// identical (seed, cfg) inputs reproduce it exactly.
type ProcScript struct {
	Seed   int64
	Events []ProcEvent
}

// sorted returns the events in stable firing order.
func (s ProcScript) sorted() []ProcEvent {
	evs := make([]ProcEvent, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// ProcGenConfig parameterizes GenerateProc. Zero fields take the noted
// defaults.
type ProcGenConfig struct {
	// Events is the number of random disruption events; default 4.
	Events int
	// Horizon spreads the events over [0, Horizon); default 2s. The
	// guaranteed restore events land at Horizon itself.
	Horizon time.Duration
	// Procs is the process-index space events target; default 2.
	Procs int
	// Freeze permits SIGSTOP/SIGCONT events alongside kill/restart.
	Freeze bool
}

func (c ProcGenConfig) withDefaults() ProcGenConfig {
	if c.Events <= 0 {
		c.Events = 4
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Second
	}
	if c.Procs <= 0 {
		c.Procs = 2
	}
	return c
}

// GenerateProc builds a random process-disruption timeline from a seed.
// The generator tracks each process's simulated state (up, down, frozen)
// and only emits events valid in that state, then appends restore events
// at the horizon — a restart for every process left down, a thaw for
// every process left frozen — so the schedule always ends with the whole
// fleet up. That final wholeness is what lets the harness assert fleet
// invariants (membership accounting, per-worker engine invariants) after
// the run without racing the disruption itself.
func GenerateProc(seed int64, cfg ProcGenConfig) ProcScript {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))

	const (
		stUp = iota
		stDown
		stFrozen
	)
	state := make([]int, cfg.Procs)

	// minGap spaces consecutive events so a kill has time to be
	// observed before the restart.
	minGap := cfg.Horizon / time.Duration(4*cfg.Events)
	var evs []ProcEvent
	at := minGap
	for len(evs) < cfg.Events && at < cfg.Horizon {
		p := rng.Intn(cfg.Procs)
		var kind ProcKind
		switch state[p] {
		case stUp:
			if cfg.Freeze && rng.Intn(2) == 1 {
				kind, state[p] = ProcFreeze, stFrozen
			} else {
				kind, state[p] = ProcKill, stDown
			}
		case stDown:
			kind, state[p] = ProcRestart, stUp
		case stFrozen:
			kind, state[p] = ProcThaw, stUp
		}
		evs = append(evs, ProcEvent{At: at, Kind: kind, Proc: p})
		at += minGap + time.Duration(rng.Int63n(int64(cfg.Horizon/time.Duration(cfg.Events))))
	}
	// Restore the fleet: every process must end the schedule up.
	for p := 0; p < cfg.Procs; p++ {
		switch state[p] {
		case stDown:
			evs = append(evs, ProcEvent{At: cfg.Horizon, Kind: ProcRestart, Proc: p})
		case stFrozen:
			evs = append(evs, ProcEvent{At: cfg.Horizon, Kind: ProcThaw, Proc: p})
		}
	}
	s := ProcScript{Seed: seed, Events: evs}
	s.Events = s.sorted()
	return s
}

// ProcReport is the outcome of a process-chaos run.
type ProcReport struct {
	// Seed is the script's seed — the reproducer token.
	Seed int64
	// Events is the script length; Fired and Skipped partition how many
	// were applied vs rejected (event invalid for the process's actual
	// state, or the controller returned an error).
	Events, Fired, Skipped int
	// Errors collects controller errors, one line each.
	Errors []string
}

// RunProc replays a process-disruption script against real worker
// processes. It tracks each process's actual state so events that became
// invalid (e.g. a thaw for a process that was killed and restarted by an
// earlier event) are skipped rather than mis-fired, mirroring how the
// in-engine runner treats events invalidated by churn. The caller asserts
// fleet invariants afterwards — typically coordinator membership
// accounting plus a per-worker OpCheckInvariants sweep, once
// coordinator membership shows the fleet back up.
func RunProc(ctrl ProcController, script ProcScript) ProcReport {
	rep := ProcReport{Seed: script.Seed, Events: len(script.Events)}

	const (
		stUp = iota
		stDown
		stFrozen
	)
	n := len(ctrl.Procs())
	state := make([]int, n)

	start := time.Now()
	for _, ev := range script.sorted() {
		if wait := ev.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if ev.Proc < 0 || ev.Proc >= n {
			rep.Skipped++
			continue
		}
		valid, next := procTransition(state[ev.Proc], ev.Kind)
		if !valid {
			rep.Skipped++
			continue
		}
		var err error
		switch ev.Kind {
		case ProcKill:
			err = ctrl.Kill(ev.Proc)
		case ProcRestart:
			err = ctrl.Restart(ev.Proc)
		case ProcFreeze:
			err = ctrl.Freeze(ev.Proc)
		case ProcThaw:
			err = ctrl.Thaw(ev.Proc)
		}
		if err != nil {
			rep.Skipped++
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", ev, err))
			continue
		}
		state[ev.Proc] = next
		rep.Fired++
	}
	return rep
}

// procTransition validates kind against a process state and returns the
// next state. Kill is valid for frozen processes too (SIGKILL terminates
// a stopped process); restart is valid from any state (it replaces).
func procTransition(state int, kind ProcKind) (valid bool, next int) {
	const (
		stUp = iota
		stDown
		stFrozen
	)
	switch kind {
	case ProcKill:
		return state != stDown, stDown
	case ProcRestart:
		return true, stUp
	case ProcFreeze:
		return state == stUp, stFrozen
	case ProcThaw:
		return state == stFrozen, stUp
	default:
		return false, state
	}
}
