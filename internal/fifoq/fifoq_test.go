package fifoq

import (
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var q Queue[int]
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	q.Push(1)
	if q.Pop() != 1 {
		t.Fatal("push/pop through zero value failed")
	}
}

func TestFIFOOrder(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

func TestInterleavedWrapAround(t *testing.T) {
	var q Queue[int]
	next, expect := 0, 0
	// Repeatedly push 3, pop 2 so head walks around the ring many times.
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	if q.Len() != 200 {
		t.Fatalf("Len = %d, want 200", q.Len())
	}
}

func TestFrontAndAt(t *testing.T) {
	var q Queue[string]
	q.Push("a")
	q.Push("b")
	q.Push("c")
	if q.Front() != "a" {
		t.Fatalf("Front = %q", q.Front())
	}
	if q.At(0) != "a" || q.At(1) != "b" || q.At(2) != "c" {
		t.Fatal("At disagrees with push order")
	}
	q.Pop()
	if q.Front() != "b" || q.At(1) != "c" {
		t.Fatal("At after Pop wrong")
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"PopEmpty":   func() { new(Queue[int]).Pop() },
		"FrontEmpty": func() { new(Queue[int]).Front() },
		"AtNegative": func() { q := new(Queue[int]); q.Push(1); q.At(-1) },
		"AtPastEnd":  func() { q := new(Queue[int]); q.Push(1); q.At(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: any sequence of pushes and pops preserves FIFO order; the
// queue behaves exactly like a reference slice implementation.
func TestQuickAgainstReference(t *testing.T) {
	f := func(ops []byte) bool {
		var q Queue[int]
		var ref []int
		next := 0
		for _, op := range ops {
			if op%3 == 0 && len(ref) > 0 {
				want := ref[0]
				ref = ref[1:]
				if q.Pop() != want {
					return false
				}
			} else {
				q.Push(next)
				ref = append(ref, next)
				next++
			}
			if q.Len() != len(ref) {
				return false
			}
			if len(ref) > 0 && q.Front() != ref[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue[int]
	for i := 0; i < b.N; i++ {
		q.Push(i)
		if q.Len() > 64 {
			q.Pop()
		}
	}
}
