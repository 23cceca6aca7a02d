package cluster

import (
	"time"

	"predstream/internal/dsps"
)

// Snapshot-encoding bounds; decoders reject counts beyond them before
// allocating (the 1 MiB frame bound caps totals regardless).
const (
	maxWireTasks   = 1 << 14
	maxWireWorkers = 1 << 12
	maxWireNodes   = 1 << 12
	maxWireHist    = 1 << 10
	maxWireShards  = 1 << 12
)

// taskStats flag bits.
const (
	taskFlagSpout   = 1 << 0
	taskFlagRetired = 1 << 1
)

// AppendSnapshot appends s's wire encoding to dst: the capture time,
// per-task stats (with latency histograms), per-worker and per-node
// aggregates, acker and scale summaries. Component aggregates are NOT
// shipped — DecodeSnapshot rebuilds them from the tasks with
// dsps.BuildComponentStats, exactly as Cluster.Snapshot does, and
// WorkerStats.Tasks membership is likewise rebuilt by worker id. See
// docs/WIRE_PROTOCOL.md § Snapshot encoding for the field-by-field
// grammar.
func AppendSnapshot(dst []byte, s *dsps.Snapshot) []byte {
	dst = appendI64(dst, s.At.UnixNano())
	dst = appendU32(dst, uint32(len(s.Tasks)))
	for i := range s.Tasks {
		dst = appendTaskStats(dst, &s.Tasks[i])
	}
	dst = appendU32(dst, uint32(len(s.Workers)))
	for i := range s.Workers {
		dst = appendWorkerStats(dst, &s.Workers[i])
	}
	dst = appendU32(dst, uint32(len(s.Nodes)))
	for i := range s.Nodes {
		dst = appendNodeStats(dst, &s.Nodes[i])
	}
	dst = appendU32(dst, uint32(len(s.Acker)))
	for i := range s.Acker {
		a := &s.Acker[i]
		dst = appendString(dst, a.Topology)
		dst = appendI64(dst, int64(a.InFlight))
		dst = appendU32(dst, 0) // shardPending: always empty, kept for the v1 layout
	}
	dst = appendU32(dst, uint32(len(s.Scale)))
	for i := range s.Scale {
		sc := &s.Scale[i]
		dst = appendString(dst, sc.Topology)
		dst = appendI64(dst, sc.Ups)
		dst = appendI64(dst, sc.Downs)
		dst = appendU64(dst, sc.RouteEpoch)
		dst = appendI64(dst, int64(sc.Retired))
	}
	return dst
}

func appendTaskStats(dst []byte, t *dsps.TaskStats) []byte {
	dst = appendI64(dst, int64(t.TaskID))
	dst = appendString(dst, t.Topology)
	dst = appendString(dst, t.Component)
	dst = appendI64(dst, int64(t.TaskIndex))
	dst = appendString(dst, t.WorkerID)
	dst = appendString(dst, t.NodeID)
	var flags uint8
	if t.IsSpout {
		flags |= taskFlagSpout
	}
	if t.Retired {
		flags |= taskFlagRetired
	}
	dst = appendU8(dst, flags)
	dst = appendI64(dst, t.Executed)
	dst = appendI64(dst, t.Emitted)
	dst = appendI64(dst, t.Acked)
	dst = appendI64(dst, t.Failed)
	dst = appendI64(dst, t.Dropped)
	dst = appendI64(dst, int64(t.ExecLatency))
	dst = appendI64(dst, int64(t.QueueLatency))
	dst = appendI64(dst, int64(t.CompleteLatency))
	dst = appendI64(dst, int64(t.QueueLen))
	dst = appendI64(dst, t.Batches)
	dst = appendI64(dst, t.BackpressureWaits)
	dst = appendI64(dst, int64(t.RingDepth))
	dst = appendI64(dst, t.RingParks)
	dst = appendI64s(dst, t.ExecHist)
	dst = appendI64s(dst, t.CompleteHist)
	return dst
}

func appendWorkerStats(dst []byte, w *dsps.WorkerStats) []byte {
	dst = appendString(dst, w.WorkerID)
	dst = appendString(dst, w.NodeID)
	dst = appendI64(dst, w.Executed)
	dst = appendI64(dst, w.Emitted)
	dst = appendI64(dst, int64(w.ExecLatency))
	dst = appendI64(dst, int64(w.QueueLen))
	dst = appendF64(dst, w.Slowdown)
	dst = appendBool(dst, w.Misbehaving)
	return dst
}

func appendNodeStats(dst []byte, n *dsps.NodeStats) []byte {
	dst = appendString(dst, n.NodeID)
	dst = appendI64(dst, int64(n.Cores))
	dst = appendStrings(dst, n.Workers)
	dst = appendI64(dst, int64(n.Executed))
	dst = appendI64(dst, int64(n.Busy))
	return dst
}

func appendI64s(dst []byte, vs []int64) []byte {
	dst = appendU32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = appendI64(dst, v)
	}
	return dst
}

// DecodeSnapshot parses a snapshot payload (the body of a MsgMetrics
// frame, or the snapshot section of an OpSnapshot result).
func DecodeSnapshot(payload []byte) (*dsps.Snapshot, error) {
	d := &dec{b: payload}
	s := decodeSnapshot(d)
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeSnapshot consumes one snapshot encoding from d; on malformed
// input it latches d.err and returns an incomplete value the caller must
// discard.
func decodeSnapshot(d *dec) *dsps.Snapshot {
	s := &dsps.Snapshot{At: time.Unix(0, d.i64())}
	nTasks := int(d.u32())
	if nTasks > maxWireTasks {
		d.fail("snapshot with %d tasks exceeds limit %d", nTasks, maxWireTasks)
		return s
	}
	for i := 0; i < nTasks && d.err == nil; i++ {
		s.Tasks = append(s.Tasks, decodeTaskStats(d))
	}
	nWorkers := int(d.u32())
	if nWorkers > maxWireWorkers {
		d.fail("snapshot with %d workers exceeds limit %d", nWorkers, maxWireWorkers)
		return s
	}
	for i := 0; i < nWorkers && d.err == nil; i++ {
		var w dsps.WorkerStats
		w.WorkerID = d.str()
		w.NodeID = d.str()
		w.Executed = d.i64()
		w.Emitted = d.i64()
		w.ExecLatency = time.Duration(d.i64())
		w.QueueLen = int(d.i64())
		w.Slowdown = d.f64()
		w.Misbehaving = d.boolean()
		s.Workers = append(s.Workers, w)
	}
	nNodes := int(d.u32())
	if nNodes > maxWireNodes {
		d.fail("snapshot with %d nodes exceeds limit %d", nNodes, maxWireNodes)
		return s
	}
	for i := 0; i < nNodes && d.err == nil; i++ {
		var n dsps.NodeStats
		n.NodeID = d.str()
		n.Cores = int(d.i64())
		n.Workers = d.strings()
		n.Executed = d.i64()
		n.Busy = int(d.i64())
		s.Nodes = append(s.Nodes, n)
	}
	nAcker := int(d.u32())
	if nAcker > maxWireNodes {
		d.fail("snapshot with %d acker entries exceeds limit %d", nAcker, maxWireNodes)
		return s
	}
	for i := 0; i < nAcker && d.err == nil; i++ {
		var a dsps.AckerStats
		a.Topology = d.str()
		a.InFlight = int(d.i64())
		d.i64s(maxWireShards) // shardPending: read and discarded
		s.Acker = append(s.Acker, a)
	}
	nScale := int(d.u32())
	if nScale > maxWireNodes {
		d.fail("snapshot with %d scale entries exceeds limit %d", nScale, maxWireNodes)
		return s
	}
	for i := 0; i < nScale && d.err == nil; i++ {
		var sc dsps.ScaleStats
		sc.Topology = d.str()
		sc.Ups = d.i64()
		sc.Downs = d.i64()
		sc.RouteEpoch = d.u64()
		sc.Retired = int(d.i64())
		s.Scale = append(s.Scale, sc)
	}
	if d.err != nil {
		return s
	}
	// Rebuild the derived views the encoder deliberately did not ship:
	// component aggregates from the tasks, and each worker's task list by
	// worker-id membership (in snapshot task order, the order the local
	// Snapshot builds them in).
	s.Components = dsps.BuildComponentStats(s.Tasks)
	if len(s.Workers) > 0 {
		byWorker := make(map[string]int, len(s.Workers))
		for i := range s.Workers {
			byWorker[s.Workers[i].WorkerID] = i
		}
		for _, ts := range s.Tasks {
			if i, ok := byWorker[ts.WorkerID]; ok {
				s.Workers[i].Tasks = append(s.Workers[i].Tasks, ts)
			}
		}
	}
	return s
}

func decodeTaskStats(d *dec) dsps.TaskStats {
	var t dsps.TaskStats
	t.TaskID = int(d.i64())
	t.Topology = d.str()
	t.Component = d.str()
	t.TaskIndex = int(d.i64())
	t.WorkerID = d.str()
	t.NodeID = d.str()
	flags := d.u8()
	t.IsSpout = flags&taskFlagSpout != 0
	t.Retired = flags&taskFlagRetired != 0
	t.Executed = d.i64()
	t.Emitted = d.i64()
	t.Acked = d.i64()
	t.Failed = d.i64()
	t.Dropped = d.i64()
	t.ExecLatency = time.Duration(d.i64())
	t.QueueLatency = time.Duration(d.i64())
	t.CompleteLatency = time.Duration(d.i64())
	t.QueueLen = int(d.i64())
	t.Batches = d.i64()
	t.BackpressureWaits = d.i64()
	t.RingDepth = int(d.i64())
	t.RingParks = d.i64()
	t.ExecHist = d.i64s(maxWireHist)
	t.CompleteHist = d.i64s(maxWireHist)
	return t
}
