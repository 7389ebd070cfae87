package jobreg

import "testing"

func TestNextIDSharesOneCounter(t *testing.T) {
	r := New[int](4)
	if got := r.NextID("cjob"); got != "cjob-1" {
		t.Fatalf("first ID = %q, want cjob-1", got)
	}
	if got := r.NextID("batch"); got != "batch-2" {
		t.Fatalf("second ID = %q, want batch-2", got)
	}
	r.Advance(9)
	r.Advance(3) // never moves backwards
	if got := r.NextID("cjob"); got != "cjob-10" {
		t.Fatalf("ID after Advance(9) = %q, want cjob-10", got)
	}
	if r.Seq() != 10 {
		t.Fatalf("Seq = %d, want 10", r.Seq())
	}
}

func TestFinishPrunesOldestBeyondLimit(t *testing.T) {
	r := New[int](2)
	for i, id := range []string{"a", "b", "c", "d"} {
		r.Add(id, i)
	}
	r.Finish("b")
	r.Finish("a")
	r.Finish("c") // evicts b, the oldest terminal job
	if _, ok := r.Get("b"); ok {
		t.Fatal("oldest finished job survived pruning")
	}
	for _, id := range []string{"a", "c", "d"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("job %s pruned, want kept", id)
		}
	}
	if n := len(r.Jobs()); n != 3 {
		t.Fatalf("Jobs returned %d jobs, want 3", n)
	}
}
