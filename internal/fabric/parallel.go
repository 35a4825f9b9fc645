package fabric

// Parallel node stepping (DESIGN.md §16). Within one slot, fabric
// nodes are independent: coupling between stages happens only through
// the link rings, which are written by handleNodeDelivery and drained
// by the admission loop at the top of Step — and an entry pushed this
// slot (enq == slot) is not admissible until the next one. Node
// stepping itself touches only node-internal state, so the node loop
// of Step can run on any number of goroutines as long as the shared
// fabric state is still mutated in the sequential order.
//
// The engine therefore splits every slot into three phases:
//
//  1. link admission — sequential, in the caller, unchanged;
//  2. node stepping — the nodes are claimed one at a time by a
//     persistent worker pool; each node's deliveries are appended to
//     a per-node buffer owned by whichever worker stepped it, in
//     emission order;
//  3. merge — the caller replays the buffered deliveries through
//     handleNodeDelivery in (node order, emission order).
//
// In the sequential engine node i's deliveries are handled inline,
// and handling never feeds back into node stepping within the slot —
// so phase 3 performs exactly the operation sequence the sequential
// engine performs on the live window, the links, the leaf pool, the
// hop statistics and the outer delivery callback. Delivery stream,
// stats, and snapshots are byte-identical for any worker count and any
// GOMAXPROCS; scheduling only decides which goroutine fills which
// (private) buffer.

import (
	"sync"
	"sync/atomic"

	"voqsim/internal/cell"
)

// parPool is the persistent worker pool of a parallel fabric. Nodes
// are claimed with an atomic cursor, so a worker stuck on a heavy node
// never blocks the others from draining the rest of the slot.
type parPool struct {
	wake   []chan int64 // one per worker; carries the slot to step
	cursor atomic.Int64 // next unclaimed node
	wg     sync.WaitGroup
}

// startWorkers builds the per-node delivery buffers and spawns the
// worker goroutines. Called from New when cfg.Workers > 1.
func (f *Fabric) startWorkers() {
	n := len(f.nodes)
	workers := min(f.cfg.Workers, n) // more workers than nodes would just idle
	f.parBuf = make([][]cell.Delivery, n)
	f.parFns = make([]func(cell.Delivery), n)
	for i := range f.parFns {
		i := i
		f.parFns[i] = func(d cell.Delivery) {
			f.parBuf[i] = append(f.parBuf[i], d)
		}
	}
	p := &parPool{wake: make([]chan int64, workers)}
	f.par = p
	for w := range p.wake {
		// Buffered by one so the slot hand-off never blocks on a worker
		// that has signalled wg.Done but not yet looped back to receive.
		ch := make(chan int64, 1)
		p.wake[w] = ch
		go f.parWorker(ch)
	}
}

// parWorker steps nodes for one slot per wake-up. Each node is stepped
// by exactly one worker, and the per-node buffer its deliveries land in
// is touched by no one else until the pool quiesces.
func (f *Fabric) parWorker(wake <-chan int64) {
	p := f.par
	for slot := range wake {
		for {
			ni := int(p.cursor.Add(1)) - 1
			if ni >= len(f.nodes) {
				break
			}
			f.nodes[ni].Step(slot, f.parFns[ni])
		}
		p.wg.Done()
	}
}

// stepNodesParallel runs the node-stepping phase of one slot on the
// worker pool, then replays every buffered delivery in node order.
// The WaitGroup edge orders all worker writes (node state, buffers,
// per-node packet pools) before the merge reads them.
func (f *Fabric) stepNodesParallel(slot int64) {
	p := f.par
	p.cursor.Store(0)
	p.wg.Add(len(p.wake))
	for _, ch := range p.wake {
		ch <- slot
	}
	p.wg.Wait()
	for ni := range f.parBuf {
		buf := f.parBuf[ni]
		for i := range buf {
			f.handleNodeDelivery(ni, buf[i])
		}
		f.parBuf[ni] = buf[:0]
	}
}

// Close stops the fabric's worker goroutines. It is a no-op on a
// sequential fabric and on a second call; the fabric must not be
// stepped after Close.
func (f *Fabric) Close() error {
	if f.par == nil {
		return nil
	}
	for _, ch := range f.par.wake {
		close(ch)
	}
	f.par = nil
	return nil
}
