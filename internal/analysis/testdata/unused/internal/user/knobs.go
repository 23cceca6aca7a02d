package user

import "unusedcorpus/internal/lib"

// Knobs writes lib.Config from non-test code.
var Knobs = configure()

func configure() int {
	cfg := lib.Config{Live: 1}
	cfg.Assigned = 2
	setInt(&cfg.Pointed)
	cfg.Nested.Max = 6
	cfg.Slots[1] = 7
	_ = cfg.Dead // a read keeps nothing live
	return lib.Apply(cfg, lib.RunOptions{3, 4})
}

func setInt(p *int) { *p = 5 }
