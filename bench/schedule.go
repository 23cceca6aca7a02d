package main

import (
	"math/rand"
	"time"
)

// Open-loop schedules. A request is timed from when it was due, not from
// when the generator got round to sending it, so a stall in the system (or
// in the generator) is charged to every request it delayed.

// pacedSchedule is a constant-rate schedule: root i is due i/rate after the
// start.
type pacedSchedule struct {
	period time.Duration // 1/rate
}

func newPacedSchedule(rate float64) pacedSchedule {
	return pacedSchedule{period: time.Duration(float64(time.Second) / rate)}
}

// dueNs returns root i's due time as an offset from the schedule start.
func (p pacedSchedule) dueNs(i int64) int64 { return i * int64(p.period) }

// poissonSchedule returns n arrival offsets of a Poisson process of the
// given rate (exponential gaps), drawn from seed alone.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
