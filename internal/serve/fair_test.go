package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// grab parks one acquire for client and exposes its grant channel.
func grab(fq *fairQueue, client string) chan *session {
	out := make(chan *session, 1)
	go func() {
		sess, err := fq.acquire(context.Background(), client)
		if err != nil {
			close(out)
			return
		}
		out <- sess
	}()
	return out
}

// pollGranted returns the index of the first channel that received a grant,
// or -1 after the deadline.
func pollGranted(chans []chan *session, timeout time.Duration) (int, *session) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, ch := range chans {
			if ch == nil {
				continue
			}
			select {
			case sess := <-ch:
				return i, sess
			default:
			}
		}
		time.Sleep(time.Millisecond)
	}
	return -1, nil
}

// TestFairQueueRoundRobin is the deterministic starvation proof at the
// queue level: with one session held and a greedy client holding 3 queued
// slots against a victim's 1, grants must alternate clients — the victim is
// served on the first rotation, not after the greedy backlog drains.
func TestFairQueueRoundRobin(t *testing.T) {
	fq := newFairQueue([]*session{{}}, 16)
	held, err := fq.acquire(context.Background(), "greedy")
	if err != nil {
		t.Fatal(err)
	}

	// Park waiters in arrival order: greedy, greedy, greedy, victim.
	owners := []string{"greedy", "greedy", "greedy", "victim"}
	var chans []chan *session
	for i, client := range owners {
		chans = append(chans, grab(fq, client))
		waitQueued(t, fq, i+1)
	}

	var order []string
	cur := held
	for len(order) < len(chans) {
		fq.release(cur)
		i, sess := pollGranted(chans, 2*time.Second)
		if i < 0 {
			t.Fatalf("no waiter granted after release; served so far: %v", order)
		}
		cur = sess
		order = append(order, owners[i])
		chans[i] = nil
	}

	// Round-robin across {greedy, victim}: greedy (first rotation), victim
	// (its rotation slot), then the greedy backlog.
	want := []string{"greedy", "victim", "greedy", "greedy"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

// TestFairQueueCancelledWaiter checks a waiter whose context fires is
// skipped at dispatch and frees its queue slot.
func TestFairQueueCancelledWaiter(t *testing.T) {
	fq := newFairQueue([]*session{{}}, 2)
	held, _ := fq.acquire(context.Background(), "a")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := fq.acquire(ctx, "b")
		errc <- err
	}()
	waitQueued(t, fq, 1)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	if q := fq.queued(); q != 0 {
		t.Fatalf("queued = %d after cancellation, want 0", q)
	}
	// The released session must fall through the cancelled waiter to idle,
	// and a fresh acquire must get it immediately.
	fq.release(held)
	sess, err := fq.acquire(context.Background(), "c")
	if err != nil || sess == nil {
		t.Fatalf("acquire after cancelled waiter: %v", err)
	}
}

// TestFairQueueBusy checks the total admission bound still sheds.
func TestFairQueueBusy(t *testing.T) {
	fq := newFairQueue([]*session{{}}, 1)
	if _, err := fq.acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	grab(fq, "a")
	waitQueued(t, fq, 1)
	if _, err := fq.acquire(context.Background(), "b"); err != errBusy {
		t.Fatalf("over-bound acquire returned %v, want errBusy", err)
	}
}

func waitQueued(t *testing.T, fq *fairQueue, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for fq.queued() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", fq.queued(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// postAs posts a verify request under an explicit client key.
func postAs(t *testing.T, client *http.Client, url, clientKey string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-VS3-Client", clientKey)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestFairQueueingHTTP is the end-to-end starvation proof: a greedy client
// floods the single-session server, a victim posts one request, and the
// victim must complete on the first round-robin rotation, not after the
// greedy backlog drains.
func TestFairQueueingHTTP(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 1, Queue: 8}).Handler())
	defer ts.Close()

	finished := make(chan string, 8)
	var wg sync.WaitGroup
	launch := func(client string, timeoutMS int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postAs(t, ts.Client(), ts.URL+"/v1/verify", client,
				VerifyRequest{Spec: arrayInitSpec(10), Method: "cfp", TimeoutMS: timeoutMS})
			finished <- client
		}()
	}
	waitFor := func(cond func(stats.Values) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(getStats(t, ts.Client(), ts.URL)) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Occupy the session, then queue greedy×3 before the victim's single
	// request. Each queued run is deadline-bounded so the test finishes
	// fast; with Pool=1 completion order equals grant order.
	launch("greedy", 1500)
	waitFor(func(s stats.Values) bool { return s[stats.InFlight] == 1 }, "first request in flight")
	for i := 0; i < 3; i++ {
		launch("greedy", 300)
		waitFor(func(s stats.Values) bool { return s[stats.Queued] == float64(i+1) }, "greedy queued")
	}
	launch("victim", 300)
	waitFor(func(s stats.Values) bool { return s[stats.Queued] == 4 && s[stats.ClientsQueued] == 2 }, "victim queued")

	wg.Wait()
	close(finished)
	var order []string
	for who := range finished {
		order = append(order, who)
	}
	// order[0] is the initial in-flight greedy run. The victim must be
	// among the next two completions (round-robin: greedy's rotation slot,
	// then victim's), never last behind the whole greedy backlog.
	pos := -1
	for i, who := range order {
		if who == "victim" {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("victim finished at position %d of %v; fair queueing should admit it on the first rotation", pos, order)
	}
}
