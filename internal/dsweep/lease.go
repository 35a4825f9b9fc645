package dsweep

import (
	"fmt"
	"time"
)

// The lease table is the coordinator's pure state machine: which grid
// points are pending, leased or done, who holds each lease, and when
// it expires. Every method takes the current time explicitly, so the
// unit tests drive it with a fake clock and no sleeps; the coordinator
// feeds it real time and owns the locking.
//
// Point lifecycle:
//
//	pending ──claim──▶ leased ──complete──▶ done
//	   ▲                  │
//	   └── expire / fail / releaseOwner (attempts++, backoff gate)
//
// A point bounced back to pending runs again from slot 0 under its
// next lease. Repeated failures gate the point behind an exponential
// backoff (base<<attempts, capped), so a poisonous point cannot
// monopolize the fleet in a tight loop.

type pointState uint8

const (
	pointPending pointState = iota
	pointLeased
	pointDone
)

// lease is one active claim on a point.
type lease struct {
	id      uint64
	point   int
	owner   string
	expires time.Time
}

// claimOutcome tells the coordinator how to answer a claim frame.
type claimOutcome uint8

const (
	// claimGranted: a lease was created; answer with a Lease frame.
	claimGranted claimOutcome = iota
	// claimWait: points remain but none is currently claimable (all
	// leased, or backing off); answer with a Wait frame.
	claimWait
	// claimDone: every point is done; answer with a Done frame.
	claimDone
	// claimDuplicate: the owner already holds an active lease; a
	// protocol violation.
	claimDuplicate
)

// leaseTable tracks every grid point of one sweep. Not safe for
// concurrent use; the coordinator serializes access.
type leaseTable struct {
	ttl         time.Duration
	backoffBase time.Duration
	backoffCap  time.Duration
	waitRetry   time.Duration // claimWait hint when nothing is backing off

	states    []pointState
	attempts  []int       // completed failures per point
	notBefore []time.Time // backoff gate; zero = immediately claimable

	leases  map[uint64]*lease
	byOwner map[string]uint64
	nextID  uint64
}

func newLeaseTable(total int, ttl, backoffBase, backoffCap, waitRetry time.Duration) *leaseTable {
	if total <= 0 {
		panic(fmt.Sprintf("dsweep: lease table over %d points", total))
	}
	return &leaseTable{
		ttl:         ttl,
		backoffBase: backoffBase,
		backoffCap:  backoffCap,
		waitRetry:   waitRetry,
		states:      make([]pointState, total),
		attempts:    make([]int, total),
		notBefore:   make([]time.Time, total),
		leases:      make(map[uint64]*lease),
		byOwner:     make(map[string]uint64),
	}
}

// markDone records a point as finished before any leasing starts — the
// resume-dir preload path.
func (lt *leaseTable) markDone(point int) {
	if lt.states[point] == pointDone {
		return
	}
	lt.states[point] = pointDone
}

// done reports whether every point is finished.
func (lt *leaseTable) done() bool { return lt.remainingPoints() == 0 }

func (lt *leaseTable) remainingPoints() int {
	n := 0
	for _, s := range lt.states {
		if s != pointDone {
			n++
		}
	}
	return n
}

// backoff returns the re-lease delay after the given number of
// failures: base<<(attempts-1), capped.
func (lt *leaseTable) backoff(attempts int) time.Duration {
	if attempts <= 0 {
		return 0
	}
	d := lt.backoffBase
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= lt.backoffCap {
			return lt.backoffCap
		}
	}
	if d > lt.backoffCap {
		return lt.backoffCap
	}
	return d
}

// claim leases the lowest-numbered claimable point to owner. On
// claimGranted the returned lease id and point describe the grant; on
// claimWait the returned duration is the suggested retry delay.
func (lt *leaseTable) claim(now time.Time, owner string) (outcome claimOutcome, id uint64, point int, retry time.Duration) {
	if lt.done() {
		return claimDone, 0, 0, 0
	}
	if _, held := lt.byOwner[owner]; held {
		return claimDuplicate, 0, 0, 0
	}
	earliest := time.Time{}
	for p, s := range lt.states {
		if s != pointPending {
			continue
		}
		if nb := lt.notBefore[p]; nb.After(now) {
			if earliest.IsZero() || nb.Before(earliest) {
				earliest = nb
			}
			continue
		}
		lt.nextID++
		l := &lease{id: lt.nextID, point: p, owner: owner, expires: now.Add(lt.ttl)}
		lt.leases[l.id] = l
		lt.byOwner[owner] = l.id
		lt.states[p] = pointLeased
		return claimGranted, l.id, p, 0
	}
	retry = lt.waitRetry
	if !earliest.IsZero() {
		if d := earliest.Sub(now); d < retry {
			retry = d
		}
	}
	if retry <= 0 {
		retry = time.Millisecond
	}
	return claimWait, 0, 0, retry
}

// heartbeat extends the lease's expiry. It reports false for a lease
// that no longer exists (expired and re-leased, or completed) or is
// owned by someone else — a stale frame the coordinator counts and
// drops.
func (lt *leaseTable) heartbeat(now time.Time, id uint64, owner string) bool {
	l, ok := lt.leases[id]
	if !ok || l.owner != owner {
		return false
	}
	l.expires = now.Add(lt.ttl)
	return true
}

// complete resolves a lease with a merged result: the point is done
// and the owner may claim again. It reports false for a stale or
// foreign lease.
func (lt *leaseTable) complete(id uint64, owner string) (point int, ok bool) {
	l, exists := lt.leases[id]
	if !exists || l.owner != owner {
		return 0, false
	}
	lt.release(l)
	lt.states[l.point] = pointDone
	return l.point, true
}

// fail resolves a lease without a usable result (rejected frame,
// protocol violation): the point returns to pending behind a backoff
// gate.
func (lt *leaseTable) fail(now time.Time, id uint64) (point int, ok bool) {
	l, exists := lt.leases[id]
	if !exists {
		return 0, false
	}
	lt.bounce(now, l)
	return l.point, true
}

// releaseOwner drops every lease held by owner — the connection died.
// It returns the points bounced back to pending.
func (lt *leaseTable) releaseOwner(now time.Time, owner string) []int {
	id, held := lt.byOwner[owner]
	if !held {
		return nil
	}
	l := lt.leases[id]
	lt.bounce(now, l)
	return []int{l.point}
}

// expire bounces every lease whose deadline passed — heartbeat loss —
// and returns them for the coordinator to count and log.
func (lt *leaseTable) expire(now time.Time) []lease {
	var out []lease
	for _, l := range lt.leases {
		if now.After(l.expires) {
			out = append(out, *l)
		}
	}
	for _, l := range out {
		lt.bounce(now, lt.leases[l.id])
	}
	return out
}

// bounce returns a leased point to pending with one more failure on
// its record and the matching backoff gate.
func (lt *leaseTable) bounce(now time.Time, l *lease) {
	lt.release(l)
	lt.states[l.point] = pointPending
	lt.attempts[l.point]++
	lt.notBefore[l.point] = now.Add(lt.backoff(lt.attempts[l.point]))
}

func (lt *leaseTable) release(l *lease) {
	delete(lt.leases, l.id)
	delete(lt.byOwner, l.owner)
}
