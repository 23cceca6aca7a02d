package corpus

// seedRing fills a task's ring before its executor starts, during
// single-threaded topology construction: no splice can race it, so the
// unlocked push is justified.
func (t *topo) seedRing(w *worker, b []int) {
	//dspslint:ignore splicesend construction-time fill; executors and splicers have not started
	w.in.Push(b)
}
