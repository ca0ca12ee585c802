package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"sublineardp/internal/wire"
)

// sample is the client's record of one request. Times are nanoseconds
// since the drive's start.
type sample struct {
	due        int64 // open loop: when the request was due; closed loop: = send
	dispatched int64 // open loop: when the generator released it
	send       int64
	firstByte  int64 // traced drives only
	end        int64
	status     int
	body       []byte
	err        error
}

// latency is the client latency: from the due time in an open loop, from
// the send in a closed one (where due == send).
func (s *sample) latency() time.Duration { return time.Duration(s.end - s.due) }

// driver sends requests to one server over a fixed number of connections.
type driver struct {
	client *http.Client
	url    string
	traced bool
	t0     time.Time
}

func newDriver(base string, conns int, traced bool) *driver {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &driver{
		client: &http.Client{Transport: tr, Timeout: 120 * time.Second},
		url:    base + "/solve",
		traced: traced,
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

func (d *driver) now() int64 { return int64(time.Since(d.t0)) }

// do sends one request and fills the sample's send, firstByte, end,
// status and body.
func (d *driver) do(ctx context.Context, body []byte, s *sample) {
	var first atomic.Int64 // written by the transport's reader goroutine
	if d.traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first.Store(d.now()) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	s.send = d.now()
	resp, err := d.client.Do(req)
	if err != nil {
		s.end, s.err = d.now(), err
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end, s.status, s.firstByte = d.now(), resp.StatusCode, first.Load()
}

// closedLoop sends reqs in order over conns connections, each sending its
// next request as soon as its previous one completed.
func (d *driver) closedLoop(ctx context.Context, reqs []*request, conns int) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	d.t0 = time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				s := &out[i]
				d.do(ctx, reqs[i].Body, s)
				s.due, s.dispatched = s.send, s.send
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop releases request i at i/rate seconds after the start, whatever
// the server's progress, and sends it on the first free of conns
// connections. Latency counts from the due time, so a stall also charges
// the requests queued behind it.
func (d *driver) openLoop(ctx context.Context, reqs []*request, conns int, rate float64) []sample {
	out := make([]sample, len(reqs))
	jobs := make(chan int, len(reqs)) // sized to the sends: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue
				}
				d.do(ctx, reqs[i].Body, &out[i])
			}
		}()
	}
	d.t0 = time.Now()
	for i := range reqs {
		due := int64(float64(i) / rate * 1e9)
		if wait := time.Duration(due - d.now()); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		out[i].due, out[i].dispatched = due, d.now()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// outcome is what a drive's responses amount to once checked.
type outcome struct {
	attempted, failed   int
	ok, cached, coalesc int
	failures            []string // first few failure reasons
	elapsedUs           []int64  // server elapsed_us per sample (-1 when not a 200)
}

// evaluate decodes and checks every response of a drive against the
// oracle answers.
func evaluate(reqs []*request, samples []sample, answers map[string]answer) *outcome {
	o := &outcome{attempted: len(samples), elapsedUs: make([]int64, len(samples))}
	fail := func(r *request, format string, args ...any) {
		o.failed++
		if len(o.failures) < 5 {
			o.failures = append(o.failures, r.ID+": "+fmt.Sprintf(format, args...))
		}
	}
	for i := range samples {
		s, r := &samples[i], reqs[i]
		o.elapsedUs[i] = -1
		switch {
		case s.err != nil:
			fail(r, "transport error: %v", s.err)
			continue
		case s.status != http.StatusOK:
			fail(r, "HTTP %d: %s", s.status, bytes.TrimSpace(s.body))
			continue
		}
		var resp wire.Response
		if err := json.Unmarshal(s.body, &resp); err != nil {
			fail(r, "undecodable response: %v", err)
			continue
		}
		o.ok++
		o.elapsedUs[i] = resp.ElapsedMicros
		if resp.Cached {
			o.cached++
		}
		if resp.Coalesced {
			o.coalesc++
		}
		want, ok := answers[r.ID]
		if !ok {
			fail(r, "no oracle answer")
			continue
		}
		if err := check(&resp, r.Req, want); err != nil {
			fail(r, "%v", err)
		}
	}
	return o
}

// agrees checks the client's tallies against the server's counters for
// the same server lifetime.
func (o *outcome) agrees(c counters) error {
	if c["requests"] != int64(o.attempted) {
		return fmt.Errorf("server counted %d requests, client sent %d", c["requests"], o.attempted)
	}
	if c["responses_ok"] != int64(o.ok) {
		return fmt.Errorf("server wrote %d 200s, client decoded %d", c["responses_ok"], o.ok)
	}
	if c["cache_hits"] != int64(o.cached) || c["coalesced"] != int64(o.coalesc) {
		return fmt.Errorf("server hits/coalesced %d/%d, client saw %d/%d",
			c["cache_hits"], c["coalesced"], o.cached, o.coalesc)
	}
	return nil
}

func (o *outcome) add(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.ok += p.ok
	o.cached += p.cached
	o.coalesc += p.coalesc
	for _, f := range p.failures {
		if len(o.failures) < 5 {
			o.failures = append(o.failures, f)
		}
	}
}
