package cluster

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// Proc is one managed worker OS process.
type Proc struct {
	// Name is the worker name the process joins the coordinator under.
	Name string
	// Cmd rebuilds the process's command line on every (re)start.
	Cmd func() *exec.Cmd

	mu     sync.Mutex
	cmd    *exec.Cmd
	frozen bool
}

// ProcSet launches and manages real worker OS processes so chaos
// schedules can kill (SIGKILL), freeze (SIGSTOP), thaw (SIGCONT), and
// restart them — the process-level analogue of the in-engine fault
// injectors. It implements chaos.ProcController. The zero value is
// ready: Add processes, then Start them.
type ProcSet struct {
	mu    sync.Mutex
	procs []*Proc
}

// Add registers a worker process under name; cmd is invoked on every
// (re)start to build a fresh command line.
func (ps *ProcSet) Add(name string, cmd func() *exec.Cmd) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.procs = append(ps.procs, &Proc{Name: name, Cmd: cmd})
}

// Procs returns the managed worker names, in Add order.
func (ps *ProcSet) Procs() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	names := make([]string, len(ps.procs))
	for i, p := range ps.procs {
		names[i] = p.Name
	}
	return names
}

func (ps *ProcSet) proc(i int) (*Proc, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if i < 0 || i >= len(ps.procs) {
		return nil, fmt.Errorf("cluster: no process %d (have %d)", i, len(ps.procs))
	}
	return ps.procs[i], nil
}

// Start launches every process that is not already running.
func (ps *ProcSet) Start() error {
	ps.mu.Lock()
	procs := append([]*Proc(nil), ps.procs...)
	ps.mu.Unlock()
	for i := range procs {
		if err := ps.Restart(i); err != nil {
			return err
		}
	}
	return nil
}

// Restart launches process i, first killing any still-running instance.
// It is both the initial-start and crash-recovery path.
func (ps *ProcSet) Restart(i int) error {
	p, err := ps.proc(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killLocked()
	cmd := p.Cmd()
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: start %s: %w", p.Name, err)
	}
	p.cmd = cmd
	p.frozen = false
	return nil
}

// Kill delivers SIGKILL to process i and reaps it. The worker's TCP
// connection drops immediately, so the coordinator sees the leave without
// waiting for the heartbeat deadline.
func (ps *ProcSet) Kill(i int) error {
	p, err := ps.proc(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return fmt.Errorf("cluster: %s not running", p.Name)
	}
	p.killLocked()
	return nil
}

// killLocked kills and reaps the current instance, if any. Caller holds
// p.mu. A frozen process is thawed first — SIGKILL terminates a stopped
// process, but reaping needs it scheduled.
func (p *Proc) killLocked() {
	if p.cmd == nil {
		return
	}
	if p.frozen {
		p.cmd.Process.Signal(syscall.SIGCONT)
	}
	p.cmd.Process.Kill()
	p.cmd.Wait() // reap; error (signal: killed) is the expected outcome
	p.cmd = nil
	p.frozen = false
}

// Freeze delivers SIGSTOP to process i. The process stays connected but
// stops heartbeating, so the coordinator's deadline declares it dead —
// the wire-level signature of a hung (not crashed) worker.
func (ps *ProcSet) Freeze(i int) error {
	p, err := ps.proc(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return fmt.Errorf("cluster: %s not running", p.Name)
	}
	if p.frozen {
		return nil
	}
	if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return fmt.Errorf("cluster: freeze %s: %w", p.Name, err)
	}
	p.frozen = true
	return nil
}

// Thaw delivers SIGCONT to a frozen process i; its next read error (the
// coordinator closed the expired connection) triggers its reconnect loop.
func (ps *ProcSet) Thaw(i int) error {
	p, err := ps.proc(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return fmt.Errorf("cluster: %s not running", p.Name)
	}
	if !p.frozen {
		return nil
	}
	if err := p.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return fmt.Errorf("cluster: thaw %s: %w", p.Name, err)
	}
	p.frozen = false
	return nil
}

// Running reports whether process i currently has a live (possibly
// frozen) instance.
func (ps *ProcSet) Running(i int) bool {
	p, err := ps.proc(i)
	if err != nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cmd != nil
}

// Close kills and reaps every managed process. Safe to call multiple
// times and after individual Kills.
func (ps *ProcSet) Close() {
	ps.mu.Lock()
	procs := append([]*Proc(nil), ps.procs...)
	ps.mu.Unlock()
	for _, p := range procs {
		p.mu.Lock()
		p.killLocked()
		p.mu.Unlock()
	}
}

// WaitExit blocks until process i's current instance exits on its own
// (e.g. after an OpShutdown), up to timeout. Returns an error if it is
// still running at the deadline.
func (ps *ProcSet) WaitExit(i int, timeout time.Duration) error {
	p, err := ps.proc(i)
	if err != nil {
		return err
	}
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if cmd == nil {
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		p.mu.Lock()
		if p.cmd == cmd {
			p.cmd = nil
			p.frozen = false
		}
		p.mu.Unlock()
		return nil
	case <-timer.C:
		return fmt.Errorf("cluster: %s still running after %v", p.Name, timeout)
	}
}
