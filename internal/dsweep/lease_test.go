package dsweep

import (
	"testing"
	"time"
)

// The lease-table unit tests drive the state machine with an explicit
// fake clock — plain time.Time values stepped by hand — so tier-1
// never sleeps: expiry, backoff and re-lease transitions are all
// functions of the timestamps passed in.

var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func newTestTable(total int) *leaseTable {
	// ttl 1s, backoff 100ms doubling to a 400ms cap, wait hint 250ms.
	return newLeaseTable(total, time.Second, 100*time.Millisecond, 400*time.Millisecond, 250*time.Millisecond)
}

func mustClaim(t *testing.T, lt *leaseTable, now time.Time, owner string) (uint64, int) {
	t.Helper()
	outcome, id, point, _ := lt.claim(now, owner)
	if outcome != claimGranted {
		t.Fatalf("claim(%s) outcome %d, want granted", owner, outcome)
	}
	return id, point
}

func TestClaimGrantCompleteDone(t *testing.T) {
	lt := newTestTable(2)
	id1, p1 := mustClaim(t, lt, t0, "a")
	if p1 != 0 {
		t.Fatalf("first claim got point %d", p1)
	}
	id2, p2 := mustClaim(t, lt, t0, "b")
	if p2 != 1 {
		t.Fatalf("second claim got point %d", p2)
	}

	// All points leased: a third worker waits with the default hint.
	outcome, _, _, retry := lt.claim(t0, "c")
	if outcome != claimWait || retry != 250*time.Millisecond {
		t.Fatalf("exhausted claim = %d retry %v", outcome, retry)
	}

	if _, ok := lt.complete(id1, "a"); !ok {
		t.Fatal("complete(id1) rejected")
	}
	if lt.done() {
		t.Fatal("done with one point outstanding")
	}
	if _, ok := lt.complete(id2, "b"); !ok {
		t.Fatal("complete(id2) rejected")
	}
	if !lt.done() {
		t.Fatal("not done with every point complete")
	}
	if outcome, _, _, _ := lt.claim(t0, "a"); outcome != claimDone {
		t.Fatalf("claim after completion = %d, want done", outcome)
	}
}

func TestDuplicateClaimRejected(t *testing.T) {
	lt := newTestTable(3)
	mustClaim(t, lt, t0, "a")
	if outcome, _, _, _ := lt.claim(t0, "a"); outcome != claimDuplicate {
		t.Fatalf("second claim by the same owner = %d, want duplicate", outcome)
	}
	// A different owner still claims normally.
	mustClaim(t, lt, t0, "b")
}

func TestExpiryReLeases(t *testing.T) {
	lt := newTestTable(1)
	id, p := mustClaim(t, lt, t0, "a")

	// Heartbeats keep the lease alive past its original deadline.
	if !lt.heartbeat(t0.Add(900*time.Millisecond), id, "a") {
		t.Fatal("heartbeat on a live lease rejected")
	}
	if got := lt.expire(t0.Add(1500 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("lease expired %v despite heartbeat", got)
	}
	if !lt.heartbeat(t0.Add(1700*time.Millisecond), id, "a") {
		t.Fatal("second heartbeat on a live lease rejected")
	}

	// Silence: the lease expires one ttl after the last extension.
	if got := lt.expire(t0.Add(2700 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("lease expired %v at its deadline", got)
	}
	expired := lt.expire(t0.Add(2701 * time.Millisecond))
	if len(expired) != 1 || expired[0].point != p || expired[0].owner != "a" {
		t.Fatalf("expire = %+v", expired)
	}

	// The stale lease is dead: heartbeat and complete bounce off it.
	late := t0.Add(3 * time.Second)
	if lt.heartbeat(late, id, "a") {
		t.Error("heartbeat on an expired lease accepted")
	}
	if _, ok := lt.complete(id, "a"); ok {
		t.Error("complete on an expired lease accepted")
	}

	// Re-lease after the backoff gate, under a fresh lease id.
	outcome, _, _, retry := lt.claim(t0.Add(2750*time.Millisecond), "b")
	if outcome != claimWait {
		t.Fatalf("claim inside the backoff window = %d, want wait", outcome)
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("backoff wait hint %v, want <= first backoff 100ms", retry)
	}
	outcome, id2, p2, _ := lt.claim(t0.Add(3*time.Second), "b")
	if outcome != claimGranted || p2 != p {
		t.Fatalf("re-lease outcome %d point %d", outcome, p2)
	}
	if id2 == id {
		t.Fatal("re-lease reused the lease id")
	}
	if _, ok := lt.complete(id2, "b"); !ok {
		t.Fatal("complete on the re-lease rejected")
	}
	if !lt.done() {
		t.Error("not done after the re-lease completed")
	}
}

func TestBackoffDoublesToCap(t *testing.T) {
	lt := newTestTable(1)
	// The schedule for base 100ms, cap 400ms: 100, 200, 400, 400, ...
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond,
	}
	now := t0
	for i, w := range want {
		id, _ := mustClaim(t, lt, now, "a")
		if _, ok := lt.fail(now, id); !ok {
			t.Fatalf("fail #%d rejected", i+1)
		}
		if got := lt.backoff(lt.attempts[0]); got != w {
			t.Fatalf("backoff after %d failures = %v, want %v", i+1, got, w)
		}
		// Claiming before the gate opens waits; at the gate it grants.
		if outcome, _, _, _ := lt.claim(now.Add(w-time.Millisecond), "a"); outcome != claimWait {
			t.Fatalf("claim inside backoff %d granted", i+1)
		}
		now = now.Add(w)
	}
}

func TestReleaseOwnerBouncesItsLease(t *testing.T) {
	lt := newTestTable(2)
	_, p := mustClaim(t, lt, t0, "a")
	mustClaim(t, lt, t0, "b")

	points := lt.releaseOwner(t0, "a")
	if len(points) != 1 || points[0] != p {
		t.Fatalf("releaseOwner = %v, want [%d]", points, p)
	}
	if lt.releaseOwner(t0, "a") != nil {
		t.Fatal("second releaseOwner released again")
	}
	if lt.releaseOwner(t0, "never-connected") != nil {
		t.Fatal("releasing an unknown owner released something")
	}

	// The bounced point is gated, then re-leasable; b's lease is
	// untouched.
	if outcome, _, _, _ := lt.claim(t0.Add(50*time.Millisecond), "c"); outcome != claimWait {
		t.Fatalf("re-lease inside the backoff gate: outcome %d", outcome)
	}
	outcome, _, p2, _ := lt.claim(t0.Add(150*time.Millisecond), "c")
	if outcome != claimGranted || p2 != p {
		t.Fatalf("re-lease after owner loss: outcome %d point %d", outcome, p2)
	}
	if len(lt.leases) != 2 {
		t.Fatalf("%d live leases, want 2", len(lt.leases))
	}
}

func TestForeignOwnerCannotTouchLease(t *testing.T) {
	lt := newTestTable(1)
	id, _ := mustClaim(t, lt, t0, "a")
	if lt.heartbeat(t0, id, "b") {
		t.Error("foreign heartbeat accepted")
	}
	if _, ok := lt.complete(id, "b"); ok {
		t.Error("foreign complete accepted")
	}
	// The rightful owner is unaffected.
	if !lt.heartbeat(t0, id, "a") {
		t.Error("owner heartbeat rejected")
	}
}

func TestMarkDonePreload(t *testing.T) {
	lt := newTestTable(3)
	lt.markDone(0)
	lt.markDone(2)
	_, p := mustClaim(t, lt, t0, "a")
	if p != 1 {
		t.Fatalf("claim skipped to point %d, want 1", p)
	}
	outcome, _, _, _ := lt.claim(t0, "b")
	if outcome != claimWait {
		t.Fatalf("claim with only leased points = %d, want wait", outcome)
	}
}
