package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/obs"
)

// errShardRefused marks a fetch refused locally by the backend's open
// breaker — the shard was never contacted.
var errShardRefused = errors.New("cluster: backend circuit breaker open")

// A backend's body cap bounds how much of one shard answer the coordinator
// buffers — defense against a confused or hostile backend — and grows with
// the band, because a /view holds at most one group per band cell. One
// group's JSON is about 120 bytes of keys and integers plus up to 25 bytes
// per feature, and a healthy 4-attribute view measures about 83 bytes per
// cell, so shardBodyPerCell covers a view of one group per cell up to five
// attributes. shardBodyFloor covers the answers that do not grow with the
// band: /stats, /readyz, /cell and error bodies.
const (
	shardBodyFloor   = 16 << 20
	shardBodyPerCell = 256
)

// oversizeError is a shard answer above its backend's body cap. The shard
// answered, so it is no breaker failure, and a retry would fetch the same
// body; the caller treats the shard as missing.
type oversizeError struct {
	shard       int
	size, limit int64 // size is -1 when the shard sent no Content-Length
}

func (e *oversizeError) Error() string {
	size := "more than " + strconv.FormatInt(e.limit, 10)
	if e.size > e.limit {
		size = strconv.FormatInt(e.size, 10)
	}
	return fmt.Sprintf("cluster: shard %d answered %s bytes, above its %d-byte body cap", e.shard, size, e.limit)
}

// answered reports whether a round trip got the shard's answer back: no
// error, or an answer over the body cap.
func answered(err error) bool {
	var oe *oversizeError
	return err == nil || errors.As(err, &oe)
}

// backend is the coordinator's per-shard client state: the base URL and the
// circuit breaker. All mutable state is guarded by mu — the breaker itself
// is not self-locking.
type backend struct {
	index   int
	base    string
	maxBody int64 // body cap: shardBodyFloor + shardBodyPerCell per band cell

	mu      sync.Mutex
	brk     *breaker.Breaker
	fails   int // attempts recorded as breaker failures (chaos reconciliation)
	refused int // fetches refused by the open breaker
}

// fetchResult is one shard response: status, headers and body, verbatim.
type fetchResult struct {
	Status int
	Header http.Header
	Body   []byte
}

// fetch performs one defended idempotent read against a backend: breaker
// admission, up to 1+retryMax attempts with the breaker's capped jittered
// backoff between them, and a per-attempt shard deadline. A non-empty etag
// goes out in If-None-Match on every attempt. 304, 4xx and answers over the
// body cap are successes to the breaker — the shard answered (a 304 has no
// body, so the cap never applies to it); only transport errors and 5xx count
// as failures. An answer over the cap comes back as its *oversizeError.
func (c *Coordinator) fetch(ctx context.Context, b *backend, pq, etag string) (fetchResult, error) {
	ctx, sp := c.obs.StartSpanCtx(ctx, "cluster.fetch", "backend", strconv.Itoa(b.index), "path", pq)
	defer sp.End()
	label := strconv.Itoa(b.index)
	var lastErr error
	for attempt := 0; attempt <= retryMax; attempt++ {
		now := c.Clock().Now()
		b.mu.Lock()
		allowed := b.brk.Allow(now)
		if !allowed {
			b.refused++
		}
		state := b.brk.State()
		b.mu.Unlock()
		c.gaugeBreaker(b, state)
		if !allowed {
			c.count("cluster.backend.refused", label)
			if lastErr != nil {
				return fetchResult{}, lastErr
			}
			return fetchResult{}, fmt.Errorf("%w (shard %d)", errShardRefused, b.index)
		}
		if attempt > 0 {
			c.count("cluster.backend.retries", label)
		}

		res, err := c.attempt(ctx, b, pq, etag)
		if answered(err) && res.Status < 500 {
			b.mu.Lock()
			b.brk.Success()
			b.mu.Unlock()
			c.gaugeBreaker(b, breaker.Closed)
			c.count("cluster.backend.success", label)
			return res, err
		}
		if err == nil {
			err = fmt.Errorf("cluster: shard %d returned status %d", b.index, res.Status)
		}
		lastErr = err
		failedAt := c.Clock().Now()
		b.mu.Lock()
		b.brk.Failure(failedAt)
		b.fails++
		state = b.brk.State()
		retryAt := b.brk.RetryAt()
		b.mu.Unlock()
		c.count("cluster.backend.failures", label)
		c.gaugeBreaker(b, state)
		if state == breaker.Open || attempt == retryMax || ctx.Err() != nil {
			break
		}
		// Honor the breaker's jittered backoff window before the next
		// attempt — Allow would refuse an immediate retry anyway. Each
		// backend draws its own jitter stream, so one coordinator's retries
		// against different shards do not fire in lockstep.
		if wait := retryAt.Sub(failedAt); wait > 0 {
			select {
			case <-c.Clock().After(wait):
			case <-ctx.Done():
				return fetchResult{}, fmt.Errorf("cluster: shard %d: %w (last error: %v)", b.index, ctx.Err(), lastErr)
			}
		}
	}
	return fetchResult{}, lastErr
}

// attempt performs one round trip within the shard deadline, on the
// caller's goroutine.
func (c *Coordinator) attempt(ctx context.Context, b *backend, pq, etag string) (fetchResult, error) {
	if ferr := c.flt.Hit("cluster.fetch"); ferr != nil {
		return fetchResult{}, fmt.Errorf("cluster: shard %d: %w", b.index, ferr)
	}
	actx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	return c.roundTrip(actx, b, pq, etag)
}

// roundTrip is one plain HTTP GET against the backend, conditional on etag
// when it is non-empty, with the inbound trace context forwarded as a
// traceparent header so shard spans link into the coordinator's request
// trace.
func (c *Coordinator) roundTrip(ctx context.Context, b *backend, pq, etag string) (fetchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+pq, nil)
	if err != nil {
		return fetchResult{}, fmt.Errorf("cluster: building request for shard %d: %w", b.index, err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		req.Header.Set("traceparent", tc.Traceparent())
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fetchResult{}, fmt.Errorf("cluster: shard %d: %w", b.index, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, b.maxBody+1))
	if err != nil {
		return fetchResult{}, fmt.Errorf("cluster: reading shard %d response: %w", b.index, err)
	}
	res := fetchResult{Status: resp.StatusCode, Header: resp.Header}
	if int64(len(body)) > b.maxBody {
		return res, &oversizeError{shard: b.index, size: resp.ContentLength, limit: b.maxBody}
	}
	res.Body = body
	return res, nil
}

// count bumps a per-backend counter (cluster.<name>|<backend>).
func (c *Coordinator) count(name, backendLabel string) {
	if c.obs.Enabled() {
		c.obs.Count(obs.FoldLabels(name, []string{backendLabel}), 1)
	}
}

// gaugeBreaker exports a backend's breaker state as a numeric gauge
// (0 closed, 1 open, 2 half-open — matching breaker.State).
func (c *Coordinator) gaugeBreaker(b *backend, s breaker.State) {
	if c.obs.Enabled() {
		c.obs.SetGauge(obs.FoldLabels("cluster.backend.breaker", []string{strconv.Itoa(b.index)}), float64(s))
	}
}
