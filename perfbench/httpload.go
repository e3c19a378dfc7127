package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdnavail/internal/server"
)

// clients is the closed-loop client count of whatif_mc: one per vCPU of
// the 2-vCPU machine the benchmark was sized on, each with its own
// keep-alive connection.
const clients = 2

// analyticClients and analyticProcs are the closed-loop client count and
// GOMAXPROCS of whatif_analytic. An analytic request costs tens of
// microseconds, most of it in loopback hand-offs between the client and
// the handler. With two Ps each hand-off can wake the other vCPU, and on a
// shared 2-vCPU VM the wake-up latency, set by whatever else the host
// runs, came to dominate the throughput: 10 s runs of one seed ranged
// 16% with two clients, and with one client the per-round throughput
// still swung by ±25% within a run and halved between runs minutes apart.
// With one client on one P the hand-offs stay on one thread, and
// alternating runs agreed within 1%.
const (
	analyticClients = 1
	analyticProcs   = 1
)

// reqHeader carries the benchmark's request index to the traced handler.
const reqHeader = "X-Bench-Req"

// node is one in-process availd on its own 127.0.0.1 listener, served by
// the benchmark's own http.Server so its Handler can be wrapped.
type node struct {
	tap  *tap
	hs   *http.Server
	base string
	done chan error
}

// listen opens a loopback listener on a kernel-chosen port.
func listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return ln, nil
}

// startNode builds a server from cfg and serves its Handler, behind a
// tap named name, on ln.
func startNode(cfg server.Config, ln net.Listener, name string, rec *recorder, reqOf func(*http.Request) int) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("server.New: %w", err)
	}
	t := &tap{next: srv.Handler(), name: name, rec: rec, reqOf: reqOf}
	n := &node{tap: t, hs: &http.Server{Handler: t}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// close shuts the node down and waits for its serve loop to return.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tap is the benchmark's middleware around a server's Handler. While
// tracing is on it records a span per request and counts the response
// bytes; while off it only forwards, at the cost of one atomic load.
type tap struct {
	next    http.Handler
	name    string
	rec     *recorder
	reqOf   func(*http.Request) int
	tracing atomic.Bool
	calls   atomic.Int64
	bytes   atomic.Int64
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.tracing.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	t.rec.record(t.name, t.reqOf(r), start, time.Now())
	t.calls.Add(1)
	t.bytes.Add(cw.n)
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// headerReq reads the request index the client put in reqHeader.
func headerReq(r *http.Request) int {
	i, err := strconv.Atoi(r.Header.Get(reqHeader))
	if err != nil {
		return -1
	}
	return i
}

// newHTTPClient returns a client holding at most clients keep-alive
// connections to each host.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
}

// get sends one GET and reads the whole body. With rec non-nil it tags
// the request with its index and records the client round trip.
func get(hc *http.Client, url string, req int, rec *recorder) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if rec != nil {
		hr.Header.Set(reqHeader, strconv.Itoa(req))
	}
	start := time.Now()
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rec != nil {
		rec.record("client", req, start, time.Now())
	}
	return resp.StatusCode, body, err
}

// sample is one served MC request, kept whole for the checks made
// after the window.
type sample struct {
	idx int
	lat time.Duration
	// bad is why the request failed, "" when it passed every check made
	// while serving.
	bad  string
	body []byte
}

// closedLoop runs n workers; each takes the next request index and calls
// do, until limit indices have been issued (limit > 0) or, with limit 0,
// until the deadline passes. Requests in flight at the deadline finish
// and count. It returns the results in index order and the wall time
// from start to the last completion.
func closedLoop[T any](n int, deadline time.Time, limit int, do func(i int) T) ([]T, time.Duration) {
	type done struct {
		i int32 // a run issues far fewer than 2^31 requests
		v T
	}
	var next atomic.Int64
	parts := make([][]done, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if limit == 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				if limit > 0 && i >= limit {
					return
				}
				parts[w] = append(parts[w], done{int32(i), do(i)})
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	// Every issued index completed, so the indices are exactly 0..total-1.
	out := make([]T, total)
	for _, p := range parts {
		for _, d := range p {
			out[d.i] = d.v
		}
	}
	return out, wall
}

// latenciesMS returns the samples' latencies in milliseconds.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat.Nanoseconds()) / 1e6
	}
	return out
}
