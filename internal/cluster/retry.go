package cluster

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"net/url"
	"sync"
	"time"

	"repro/internal/engine"
)

// retryPolicy is the unified retry/timeout/backoff discipline for
// router→worker calls: a bounded number of attempts under an elapsed-time
// budget, with jittered exponential backoff between attempts. Retries are
// only safe because forwarded and drained arrivals are idempotency-keyed
// (the X-Omflp-Idem-Start header, see sendArrivals): a replayed batch is
// trimmed by the worker's per-tenant admitted counter and can never
// double-serve.
type retryPolicy struct {
	attempts int           // max attempts (including the first)
	budget   time.Duration // total elapsed budget across attempts
	base     time.Duration // first backoff; doubles per attempt
	max      time.Duration // backoff cap
}

var defaultRetry = retryPolicy{attempts: 4, budget: 8 * time.Second, base: 25 * time.Millisecond, max: 500 * time.Millisecond}

// cutWait bounds how long a move polls an owner whose admitted count is
// short of the ledger (Router.admitted): flushed frames may still be on
// their way, but an owner that refused one never catches up.
var cutWait = retryPolicy{attempts: math.MaxInt, budget: 10 * time.Second, base: 2 * time.Millisecond, max: 100 * time.Millisecond}

// errShort is the retry-safe error cutWait polls on.
var errShort = &unavailableError{errors.New("cluster: admitted count short of the cut")}

// retryJitter feeds backoff jitter. Package cluster is outside the
// deterministic-lint set; a shared seeded source keeps tests stable enough
// while still de-synchronizing concurrent retry loops.
var (
	retryMu  sync.Mutex
	retryRng = rand.New(rand.NewSource(1))
)

func jitter(d time.Duration) time.Duration {
	retryMu.Lock()
	f := 0.5 + retryRng.Float64() // 0.5x .. 1.5x
	retryMu.Unlock()
	return time.Duration(float64(d) * f)
}

// do runs fn under the policy, retrying transient failures until the
// attempt count or elapsed budget runs out. onRetry (optional) observes
// each retried error — the router counts these into its metrics.
func (p retryPolicy) do(fn func() error, onRetry func(error)) error {
	start := time.Now()
	backoff := p.base
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || !transient(err) {
			return err
		}
		if attempt >= p.attempts || time.Since(start)+backoff > p.budget {
			return err
		}
		if onRetry != nil {
			onRetry(err)
		}
		time.Sleep(jitter(backoff))
		if backoff *= 2; backoff > p.max {
			backoff = p.max
		}
	}
}

// unavailableError marks a worker response that is safe to retry: a 5xx
// from a node that has not admitted the batch, a node marked down, or a
// node not yet at the admitted count a move waits for (errShort).
// It wraps the underlying error for classification.
type unavailableError struct{ err error }

func (e *unavailableError) Error() string { return e.err.Error() }
func (e *unavailableError) Unwrap() error { return e.err }

// refusedError marks a worker's 400 on a keyed arrive: the arrival after
// the accepted prefix was refused as invalid. Like every refusal it is final.
type refusedError struct{ err error }

func (e *refusedError) Error() string { return e.err.Error() }
func (e *refusedError) Unwrap() error { return e.err }

// transient classifies an error as retry-safe: network/transport failures
// and explicit unavailability. Application-level refusals (unknown tenant,
// duplicate, gap) are final — retrying cannot change them.
func transient(err error) bool {
	if err == nil {
		return false
	}
	var ue *unavailableError
	if errors.As(err, &ue) {
		return true
	}
	if errors.Is(err, engine.ErrUnknownTenant) || errors.Is(err, engine.ErrDuplicateTenant) {
		return false
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		return true
	}
	var uerr *url.Error
	return errors.As(err, &uerr)
}
