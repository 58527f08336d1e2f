// Package client is the resilient HTTP client for the mariond compile
// service: retries with exponential backoff and full jitter, honoring
// the server's computed Retry-After (header and JSON hint), optional
// hedged requests against tail latency, and context-aware cancellation
// throughout. cmd/marionload drives its load through this client. The
// package is internal: only this module's programs can import it.
//
// The retry policy matches the server's shedding contract: 429/503 mean
// "come back after the hint", 502/504 and transport errors mean "the
// attempt died, try again", and every other status is returned to the
// caller untouched — user errors are never retried.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"marion/internal/server"
	"marion/internal/trace"
)

// maxBackoff caps the exponential backoff between retries.
const maxBackoff = 5 * time.Second

// Config tunes a Client. The zero value (plus BaseURL) is a plain
// single-attempt client.
type Config struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8341".
	BaseURL string
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries is how many times a retryable failure is retried after
	// the first attempt; 0 disables retries.
	MaxRetries int
	// BaseBackoff seeds the exponential backoff (doubled per retry);
	// <= 0 means 100ms.
	BaseBackoff time.Duration
	// MaxRetryAfter caps how long a server Retry-After hint is honored
	// (a hint beyond it waits only this long); <= 0 means 30s.
	MaxRetryAfter time.Duration
	// Hedge, when > 0, launches a second identical request if the first
	// has not answered within this delay; the first response wins and
	// the loser is cancelled. Use only for idempotent traffic (compiles
	// are: the cache makes duplicates cheap).
	Hedge time.Duration
	// Rand is the jitter source in [0,1); nil means math/rand. Inject
	// for deterministic tests.
	Rand func() float64
}

func (c *Config) fill() {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 30 * time.Second
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
}

// Client talks to one mariond. Safe for concurrent use.
type Client struct {
	cfg Config
}

// New builds a Client.
func New(cfg Config) *Client {
	cfg.fill()
	return &Client{cfg: cfg}
}

// Result is one Compile call's outcome, successful or not.
type Result struct {
	// Status is the final HTTP status (0 when every attempt died in
	// transport).
	Status int
	// Resp is the decoded success body; nil unless Status is 200.
	Resp *server.CompileResponse
	// ErrBody is the decoded error body when the final answer was a
	// JSON error; nil otherwise.
	ErrBody *server.ErrorResponse
	// Attempts counts requests actually sent, hedges included.
	Attempts int
	// Retries counts backoff rounds taken.
	Retries int
	// Sheds counts 429 answers seen across all attempts, including
	// retried ones a later attempt turned into a success — the server
	// shed this request even if the caller never saw it.
	Sheds int
	// Hedged reports that the winning response came from a hedge
	// request rather than the primary.
	Hedged bool
	// RequestID is the server-echoed request ID of the final answer —
	// the handle for the server's /tracez?id=<RequestID> and the key of
	// its access-log line. Empty when no answer carried the header.
	RequestID string
	// RequestIDs lists the ID sent with every physical request, in send
	// order: the first attempt's ID is the base, retries and hedges get
	// "<base>.<n>" so every server-side trace stays distinct yet
	// greppable back to the one logical call.
	RequestIDs []string
}

// retryable reports whether a status is worth retrying under the
// server's shedding contract.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Compile posts one compile request, retrying per the config. deadline
// (> 0) is sent as the X-Marion-Deadline-Ms header on every attempt.
// The returned error is non-nil only when no HTTP answer was obtained
// at all (transport failure or context cancellation); HTTP-level
// failures come back as a Result with Status and ErrBody set.
func (c *Client) Compile(ctx context.Context, req *server.CompileRequest, deadline time.Duration) (*Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	base := trace.NewID()
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, hedged, aerr := c.send(ctx, body, deadline, base, res)
		if resp != nil {
			res.Attempts++
			if hedged {
				res.Attempts++ // the losing primary was also sent
				res.Hedged = true
			}
			res.Status = resp.StatusCode
			if id := resp.Header.Get(server.RequestIDHeader); id != "" {
				res.RequestID = id
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				res.Sheds++
			}
			retryAfter, derr := decodeInto(res, resp)
			if derr != nil {
				// The success body died mid-read (connection reset or
				// truncation): treat the attempt like a transport failure.
				lastErr = derr
				if ctx.Err() != nil || attempt >= c.cfg.MaxRetries {
					return nil, fmt.Errorf("compile: %w", lastErr)
				}
				if werr := c.sleep(ctx, c.backoff(attempt, 0)); werr != nil {
					return nil, fmt.Errorf("compile: %w", lastErr)
				}
				res.Retries++
				continue
			}
			if !retryable(resp.StatusCode) || attempt >= c.cfg.MaxRetries {
				return res, nil
			}
			if werr := c.sleep(ctx, c.backoff(attempt, retryAfter)); werr != nil {
				return res, nil // context died mid-backoff; report what we have
			}
			res.Retries++
			continue
		}
		res.Attempts++
		lastErr = aerr
		if ctx.Err() != nil || attempt >= c.cfg.MaxRetries {
			return nil, fmt.Errorf("compile: %w", lastErr)
		}
		if werr := c.sleep(ctx, c.backoff(attempt, 0)); werr != nil {
			return nil, fmt.Errorf("compile: %w", lastErr)
		}
		res.Retries++
	}
}

// Statz fetches the daemon's load statistics (no retries: it is a
// monitoring probe, staleness beats latency).
func (c *Client) Statz(ctx context.Context) (*server.Statz, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/statz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.HTTPClient.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statz: status %d", resp.StatusCode)
	}
	st := &server.Statz{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		return nil, err
	}
	return st, nil
}

// send issues one logical attempt: the primary request, plus a hedge
// when configured and the primary is slow. The first response wins;
// the loser's context is cancelled. hedged reports whether the winner
// was the hedge. Every physical request gets its own request ID
// (derived from base, recorded in res.RequestIDs), assigned at launch
// from send's own goroutine so hedges never race on the slice.
func (c *Client) send(ctx context.Context, body []byte, deadline time.Duration, base string, res *Result) (resp *http.Response, hedged bool, err error) {
	nextID := func() string {
		id := base
		if n := len(res.RequestIDs); n > 0 {
			id = base + "." + strconv.Itoa(n)
		}
		res.RequestIDs = append(res.RequestIDs, id)
		return id
	}
	if c.cfg.Hedge <= 0 {
		resp, err = c.post(ctx, body, deadline, nextID())
		return resp, false, err
	}

	ch := make(chan answer, 2)
	launch := func(hedge bool) {
		rctx, cancel := context.WithCancel(ctx)
		id := nextID()
		go func() {
			r, e := c.post(rctx, body, deadline, id)
			ch <- answer{resp: r, err: e, hedge: hedge, cancel: cancel}
		}()
	}
	launch(false)

	timer := time.NewTimer(c.cfg.Hedge)
	defer timer.Stop()
	inflight := 1
	select {
	case a := <-ch:
		return a.claim(), a.hedge, a.err
	case <-timer.C:
		launch(true)
		inflight = 2
	case <-ctx.Done():
		// The primary will resolve (with ctx's error) shortly; drain it
		// so its cancel runs and any raced-in response body is closed.
		drainCancel(ch, 1)
		return nil, false, ctx.Err()
	}

	// Two in flight: take the first usable answer; if the winner
	// errored, fall back to the other.
	var firstErr error
	for i := 0; i < inflight; i++ {
		a := <-ch
		if a.resp != nil {
			// Cancel the loser lazily: its own answer still lands in ch
			// (buffered), and garbage collection of the channel drops it.
			go drainCancel(ch, inflight-i-1)
			return a.claim(), a.hedge, a.err
		}
		a.cancel()
		if firstErr == nil {
			firstErr = a.err
		}
	}
	return nil, false, firstErr
}

// answer is one in-flight request's outcome, tagged with whether it
// was the hedge and carrying its own cancel.
type answer struct {
	resp   *http.Response
	err    error
	hedge  bool
	cancel context.CancelFunc
}

// claim hands the winning answer's response to the caller with its
// request context kept alive until the body is closed: cancelling at
// selection time would abort any body bytes not yet received (the
// Response arrives at header receipt, the payload streams after). A
// response-less answer cancels immediately.
func (a answer) claim() *http.Response {
	if a.resp == nil {
		a.cancel()
		return nil
	}
	a.resp.Body = cancelOnClose{a.resp.Body, a.cancel}
	return a.resp
}

// cancelOnClose releases a hedged request's context when its response
// body is closed.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// drainCancel consumes the remaining n answers and cancels them.
func drainCancel(ch chan answer, n int) {
	for i := 0; i < n; i++ {
		a := <-ch
		a.cancel()
		if a.resp != nil {
			a.resp.Body.Close()
		}
	}
}

// post sends one POST /compile tagged with its request ID.
func (c *Client) post(ctx context.Context, body []byte, deadline time.Duration, id string) (*http.Response, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/compile", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	if id != "" {
		r.Header.Set(server.RequestIDHeader, id)
	}
	if deadline > 0 {
		r.Header.Set(server.DeadlineHeader, strconv.FormatInt(deadline.Milliseconds(), 10))
	}
	return c.cfg.HTTPClient.Do(r)
}

// decodeInto consumes the response body into the Result and returns
// the server's Retry-After hint (header first, JSON hint as fallback),
// zero when absent. A 200 whose body could not be read or decoded
// returns a non-nil error — the attempt is as dead as a transport
// failure and the caller should retry it; error bodies decode
// best-effort (a truncated message still beats none).
func decodeInto(res *Result, resp *http.Response) (time.Duration, error) {
	defer resp.Body.Close()
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if resp.StatusCode == http.StatusOK {
		res.ErrBody = nil
		if rerr != nil {
			return 0, fmt.Errorf("reading response body: %w", rerr)
		}
		cr := &server.CompileResponse{}
		if derr := json.Unmarshal(body, cr); derr != nil {
			return 0, fmt.Errorf("decoding response body: %w", derr)
		}
		res.Resp = cr
		return 0, nil
	}
	res.Resp = nil
	er := &server.ErrorResponse{}
	if json.Unmarshal(body, er) == nil {
		res.ErrBody = er
	} else {
		res.ErrBody = &server.ErrorResponse{Error: string(body)}
	}
	if h := resp.Header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second, nil
		}
	}
	if res.ErrBody != nil && res.ErrBody.RetryAfterSeconds > 0 {
		return time.Duration(res.ErrBody.RetryAfterSeconds * float64(time.Second)), nil
	}
	return 0, nil
}

// backoff computes the wait before retry #attempt: exponential with
// full jitter (sleep = rand() * backoff), stretched to the server's
// Retry-After hint (capped at MaxRetryAfter) when that is longer.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	b := c.cfg.BaseBackoff << uint(attempt)
	if b > maxBackoff || b <= 0 {
		b = maxBackoff
	}
	d := time.Duration(c.cfg.Rand() * float64(b))
	if retryAfter > c.cfg.MaxRetryAfter {
		retryAfter = c.cfg.MaxRetryAfter
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// sleep waits d or until the context dies.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
