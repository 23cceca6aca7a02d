// Package corpus is the ringmisuse analyzer's test corpus. It imports the
// real ring package so the analyzer's type-identity match (a method on
// ring.SPSC, any instantiation) is exercised, not a lookalike.
package corpus

import "predstream/internal/ring"

type batch struct{ vals []int }

// op stands in for the engine's ackOp: what a bolt sends its spout.
type op struct{ root, xor uint64 }

type plane struct {
	in   *ring.SPSC[batch]
	ack  *ring.SPSC[*[]int]
	acks *ring.SPSC[op] // a bolt's ack ring: the bolt pushes, the spout pops
}

// strayPush is the bug the analyzer exists for: a second goroutine
// pushing into a single-producer ring.
func (p *plane) strayPush(b batch) {
	p.in.Push(b) // want: ringmisuse
}

// strayPushAck covers a second instantiation.
func (p *plane) strayPushAck(op *[]int) {
	p.ack.Push(op) // want: ringmisuse
}

// strayClose: Close is producer-side — the consumer drains and prunes,
// it never closes.
func (p *plane) strayClose() {
	p.in.Close() // want: ringmisuse
}

// strayPop is the consumer-side mirror.
func (p *plane) strayPop() (batch, bool) {
	return p.in.Pop() // want: ringmisuse
}

// wrongSide holds the consumer directive but pushes: still a violation.
//
//dsps:ringconsumer
func (p *plane) wrongSide(b batch) {
	for {
		if p.in.Push(b) { // want: ringmisuse
			return
		}
	}
}

// boltDrainsAcks is a bolt popping ops off its own ack ring: only the
// spout that owns the roots may, and a producer-side directive does not
// make the bolt a consumer.
//
//dsps:ringproducer
func (p *plane) boltDrainsAcks(dst []op) int {
	p.acks.PushN(dst)
	return p.acks.PopN(dst) // want: ringmisuse
}

// strayPeek takes a batch in place without the consumer directive, and
// strayReclaim takes a released buffer back without the producer one.
func (p *plane) strayPeek() (batch, bool) {
	b, ok := p.in.Peek() // want: ringmisuse
	p.in.Advance()       // want: ringmisuse
	return b, ok
}

func (p *plane) strayReclaim() (batch, bool) {
	return p.in.Reclaim() // want: ringmisuse
}

// annotatedProducer is the engine's producer shape; must NOT be flagged.
//
//dsps:ringproducer
func (p *plane) annotatedProducer(b batch) bool {
	return p.in.Push(b)
}

// annotatedConsumer is the engine's consumer shape; must NOT be flagged.
//
//dsps:ringconsumer
func (p *plane) annotatedConsumer() (batch, bool) {
	return p.in.Pop()
}

// inPlace is the engine's recycling shape: the consumer processes a batch
// in its slot and releases it, the producer pushes and reclaims. Neither
// must be flagged.
//
//dsps:ringconsumer
func (p *plane) inPlace(dst []op) (batch, bool) {
	p.acks.PopN(dst)
	b, ok := p.in.Peek()
	if ok {
		p.in.Advance()
	}
	return b, ok
}

//dsps:ringproducer
func (p *plane) pushAndReclaim(b batch, ops []op) (batch, bool) {
	p.acks.PushN(ops)
	p.in.Push(b)
	return p.in.Reclaim()
}

// retire carries both directives — the ownership-transfer shape where a
// reclaimer closes and drains a ring after its executor exited.
//
//dsps:ringproducer
//dsps:ringconsumer
func (p *plane) retire() int {
	p.in.Close()
	lost := 0
	for {
		b, ok := p.in.Pop()
		if !ok {
			return lost
		}
		lost += len(b.vals)
	}
}

// queries are free from any goroutine: both sides use them to park.
func (p *plane) queries() (int, bool, bool) {
	return p.in.Len(), p.in.Empty(), p.in.Closed()
}
