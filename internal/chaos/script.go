// Package chaos replays deterministic fault timelines against a running
// dsps.Cluster while an invariant checker continuously asserts engine
// correctness: tuple conservation, acker quiescence after drain, monotone
// metrics counters, bounded queue growth once faults clear, and
// controller-plan sanity (ratios sum to 1, no routing to stalled workers
// after the detection latency).
//
// A timeline is a Script: a list of timed events (fault inject/clear,
// rebalance, topology kill, spout pause/resume, quiescence checkpoints).
// Scripts are either written by hand or produced by Generate from a seed,
// and the runner fires events in deterministic order, so every reported
// violation reproduces from the single printed seed plus the generator
// configuration. The engine itself still schedules goroutines, so tuple
// interleavings vary run to run — the invariants are exactly the
// properties that must hold under every interleaving, which is what makes
// the harness a soak test rather than a golden-output test.
//
// All randomness is drawn from explicitly seeded sources; dspslint
// enforces that (and map-iteration determinism) for this package.
//
//dsps:deterministic
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"predstream/internal/dsps"
)

// Kind discriminates chaos events.
type Kind int

const (
	// KindInject applies Event.Fault to the targeted worker.
	KindInject Kind = iota
	// KindClear removes any fault from the targeted worker.
	KindClear
	// KindRebalance stops and resubmits the targeted topology with the
	// event's Workers/Strategy (in-flight tuples get Event.DrainTimeout).
	KindRebalance
	// KindKill shuts the targeted topology down.
	KindKill
	// KindPause stops every spout from emitting.
	KindPause
	// KindResume re-enables spout emission.
	KindResume
	// KindCheckpoint clears all faults, pauses spouts, drains, runs the
	// quiescent-state invariants (conservation, acker quiescence, empty
	// queues), and resumes emission.
	KindCheckpoint
	// KindScaleUp spawns Event.Tasks new executors for Event.Component.
	KindScaleUp
	// KindScaleDown drains Event.Tasks executors of Event.Component (the
	// drain bounded by Event.DrainTimeout). Scaling to the floor is rejected
	// by the engine and counts as skipped — legitimate under churn.
	KindScaleDown
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindClear:
		return "clear"
	case KindRebalance:
		return "rebalance"
	case KindKill:
		return "kill"
	case KindPause:
		return "pause"
	case KindResume:
		return "resume"
	case KindCheckpoint:
		return "checkpoint"
	case KindScaleUp:
		return "scale-up"
	case KindScaleDown:
		return "scale-down"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timed action of a chaos script.
type Event struct {
	// At is the firing time as an offset from the start of the run.
	At   time.Duration
	Kind Kind

	// Worker targets inject/clear by explicit id. When empty, WorkerIndex
	// is resolved against the cluster's live worker list at fire time
	// (modulo its length), so generated scripts keep targeting real
	// workers across rebalances, which renumber worker ids.
	Worker      string
	WorkerIndex int
	// Fault is the misbehaviour applied by KindInject.
	Fault dsps.Fault

	// Topology names the rebalance/kill target; empty targets the first
	// running topology at fire time.
	Topology string
	// Workers is the worker-process count for KindRebalance (0 keeps the
	// cluster default).
	Workers int
	// Strategy is the placement for KindRebalance.
	Strategy dsps.PlacementStrategy
	// DrainTimeout bounds the rebalance or scale-down drain.
	DrainTimeout time.Duration

	// Component is the bolt targeted by KindScaleUp/KindScaleDown.
	Component string
	// Tasks is the executor delta magnitude for scale events; 0 means 1.
	Tasks int
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case KindInject:
		target := e.Worker
		if target == "" {
			target = fmt.Sprintf("#%d", e.WorkerIndex)
		}
		return fmt.Sprintf("%s inject %s %+v", e.At.Round(time.Millisecond), target, e.Fault)
	case KindClear:
		target := e.Worker
		if target == "" {
			target = fmt.Sprintf("#%d", e.WorkerIndex)
		}
		return fmt.Sprintf("%s clear %s", e.At.Round(time.Millisecond), target)
	case KindRebalance:
		return fmt.Sprintf("%s rebalance workers=%d strategy=%s", e.At.Round(time.Millisecond), e.Workers, e.Strategy)
	case KindScaleUp, KindScaleDown:
		return fmt.Sprintf("%s %s %s n=%d", e.At.Round(time.Millisecond), e.Kind, e.Component, e.taskDelta())
	default:
		return fmt.Sprintf("%s %s", e.At.Round(time.Millisecond), e.Kind)
	}
}

// taskDelta returns the effective executor count of a scale event.
func (e Event) taskDelta() int {
	if e.Tasks <= 0 {
		return 1
	}
	return e.Tasks
}

// Script is a deterministic fault timeline. Seed records where the events
// came from so a failing run can print a one-token reproducer.
type Script struct {
	Seed   int64
	Events []Event
}

// sorted returns the events in stable firing order.
func (s Script) sorted() []Event {
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// GenConfig parameterizes Generate. Zero fields take the noted defaults;
// the boolean event classes are opt-in so the zero value produces a plain
// inject/clear schedule that any topology survives.
type GenConfig struct {
	// Events is the number of inject/clear/rebalance/scale events;
	// default 12.
	Events int
	// Horizon spreads the events over [0, Horizon); default 2s.
	Horizon time.Duration
	// Workers is the worker-index space events target; default 4.
	Workers int
	// Stall permits full-hang faults.
	Stall bool
	// Rebalance permits stop-and-resubmit events onto 1 to Workers+2
	// workers.
	Rebalance bool
	// Checkpoint inserts one mid-run quiescence checkpoint at Horizon/2.
	Checkpoint bool
	// Pause inserts one pause/resume pair.
	Pause bool
	// Scale permits live executor scale-up/scale-down events against the
	// components named in ScaleComponents. Besides joining the random event
	// pool, an enabled schedule always carries one guaranteed scale-up at
	// Horizon/3 and one scale-down at 2·Horizon/3, so every scaled run
	// exercises both directions mid-fault.
	Scale bool
	// ScaleComponents names the bolts scale events may target; required
	// when Scale is set (Scale is ignored while it is empty).
	ScaleComponents []string
}

// Bounds of generated events.
const (
	// maxSlowdown bounds generated slowdown faults, drawn from
	// [1, maxSlowdown].
	maxSlowdown = 8.0
	// maxDropProb and maxFailProb bound generated probabilistic faults.
	maxDropProb = 0.5
	maxFailProb = 0.5
	// maxScaleStep bounds the executor delta of one scale event.
	maxScaleStep = 2
)

func (c GenConfig) withDefaults() GenConfig {
	if c.Events <= 0 {
		c.Events = 12
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if len(c.ScaleComponents) == 0 {
		c.Scale = false
	}
	return c
}

// Generate builds a random fault timeline from a seed. Identical
// (seed, cfg) inputs yield identical scripts, which is what makes a chaos
// failure reproducible from its printed seed.
func Generate(seed int64, cfg GenConfig) Script {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	at := func() time.Duration { return time.Duration(rng.Int63n(int64(cfg.Horizon))) }

	// Inject twice as often as clear so faults overlap; the runner clears
	// every fault before the final drain regardless.
	kinds := []Kind{KindInject, KindInject, KindInject, KindInject, KindClear, KindClear}
	if cfg.Rebalance {
		kinds = append(kinds, KindRebalance)
	}
	if cfg.Scale {
		kinds = append(kinds, KindScaleUp, KindScaleDown)
	}
	scaleEvent := func(kind Kind, at time.Duration) Event {
		return Event{
			At:           at,
			Kind:         kind,
			Component:    cfg.ScaleComponents[rng.Intn(len(cfg.ScaleComponents))],
			Tasks:        1 + rng.Intn(maxScaleStep),
			DrainTimeout: 100 * time.Millisecond,
		}
	}

	var evs []Event
	for len(evs) < cfg.Events {
		ev := Event{At: at(), Kind: kinds[rng.Intn(len(kinds))], WorkerIndex: rng.Intn(cfg.Workers)}
		switch ev.Kind {
		case KindInject:
			ev.Fault = randFault(rng, cfg)
		case KindRebalance:
			ev.Workers = 1 + rng.Intn(cfg.Workers+2)
			ev.Strategy = dsps.PlaceRoundRobin
			if rng.Intn(2) == 1 {
				ev.Strategy = dsps.PlaceBlocked
			}
			ev.DrainTimeout = 50 * time.Millisecond
		case KindScaleUp, KindScaleDown:
			ev = scaleEvent(ev.Kind, ev.At)
		}
		evs = append(evs, ev)
	}
	if cfg.Scale {
		// Guarantee both directions fire mid-run: an up while the schedule's
		// early faults are live, a down while the late ones are.
		evs = append(evs,
			scaleEvent(KindScaleUp, cfg.Horizon/3),
			scaleEvent(KindScaleDown, 2*cfg.Horizon/3))
	}
	if cfg.Pause {
		p := time.Duration(rng.Int63n(int64(cfg.Horizon / 2)))
		evs = append(evs,
			Event{At: p, Kind: KindPause},
			Event{At: p + cfg.Horizon/10, Kind: KindResume})
	}
	if cfg.Checkpoint {
		evs = append(evs, Event{At: cfg.Horizon / 2, Kind: KindCheckpoint})
	}
	s := Script{Seed: seed, Events: evs}
	s.Events = s.sorted()
	return s
}

func randFault(rng *rand.Rand, cfg GenConfig) dsps.Fault {
	n := 3
	if cfg.Stall {
		n = 4
	}
	switch rng.Intn(n) {
	case 0:
		return dsps.Fault{Slowdown: 1 + rng.Float64()*(maxSlowdown-1)}
	case 1:
		return dsps.Fault{DropProb: rng.Float64() * maxDropProb}
	case 2:
		return dsps.Fault{FailProb: rng.Float64() * maxFailProb}
	default:
		return dsps.Fault{Stall: true}
	}
}
