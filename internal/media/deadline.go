package media

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// ErrDeadlineExceeded reports work abandoned because its chunk's
// deadline budget ran out: an enhancer skipping an expired job, the
// pool's retry ladder running out of budget, or the server flooring a
// chunk that expired before decode. It is a per-item outcome, never a
// connection-fatal error.
var ErrDeadlineExceeded = errors.New("media: deadline exceeded")

// ErrShed reports work rejected by admission control before any
// resources were spent on it: a full job queue or a stream over its
// token-bucket rate. Shed work was never started, so the sender may
// safely resubmit (unlike ErrDeadlineExceeded, where partial work may
// have shipped as a degraded chunk).
var ErrShed = errors.New("media: shed by overload control")

// ErrUnknownStream reports a job for a stream its enhancer holds no model
// for: the stream's first job on a replica, or its first after the
// replica restarted. It is a fact about the stream, not about the
// enhancer's health: enhanceGroup answers it by registering the stream's
// hello there and running the job once more.
var ErrUnknownStream = errors.New("media: no model for stream")

// Wire error payloads are human-readable strings, so the typed errors
// above cross the wire as marker substrings. The markers are the typed
// errors' own messages; remoteError re-wraps payloads containing them
// so errors.Is works across the RPC boundary.
const (
	deadlineMarker = "deadline exceeded"
	shedMarker     = "shed by overload control"
	unknownMarker  = "no model for stream"
)

// remoteError converts a TypeError reply payload into a typed error:
// payloads carrying a deadline, shed or unknown-stream marker wrap the
// corresponding sentinel so callers can errors.Is across the wire;
// anything else becomes a plain remote error under prefix.
func remoteError(prefix string, payload []byte) error {
	s := string(payload)
	switch {
	case strings.Contains(s, deadlineMarker):
		return fmt.Errorf("%s: %s: %w", prefix, s, ErrDeadlineExceeded)
	case strings.Contains(s, shedMarker):
		return fmt.Errorf("%s: %s: %w", prefix, s, ErrShed)
	case strings.Contains(s, unknownMarker):
		return fmt.Errorf("%s: %s: %w", prefix, s, ErrUnknownStream)
	default:
		return fmt.Errorf("%s: %s", prefix, s)
	}
}

// expired reports whether a deadline exists and has passed at now.
func expired(deadline, now time.Time) bool {
	return !deadline.IsZero() && !now.Before(deadline)
}

// jobBudget returns the remaining wire budget for a job at now: the
// time until its deadline, floored at a microsecond so an
// already-expired job still carries a (spent) deadline rather than
// degrading to "no deadline". Zero deadline yields zero budget (no
// deadline on the wire).
func jobBudget(deadline time.Time, now time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	b := deadline.Sub(now)
	if b < time.Microsecond {
		return time.Microsecond
	}
	return b
}

// minJobDeadline returns the earliest non-zero deadline across jobs
// (zero if none carry one). Batch members come from one chunk and so
// share a deadline, but taking the minimum keeps mixed batches safe.
func minJobDeadline(jobs []wire.AnchorJob) time.Time {
	var min time.Time
	for _, j := range jobs {
		if j.Deadline.IsZero() {
			continue
		}
		if min.IsZero() || j.Deadline.Before(min) {
			min = j.Deadline
		}
	}
	return min
}

// tokenBucket is a per-stream admission limiter: rate tokens per second
// with a burst-deep bucket, refilled continuously from elapsed time.
// It is deliberately clock-driven (not ticker-driven) so tests can feed
// it explicit times.
type tokenBucket struct {
	mu sync.Mutex
	// tokens and last are guarded by mu.
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{tokens: float64(burst), rate: rate, burst: float64(burst)}
}

// take consumes one token at time now, reporting whether the caller is
// admitted.
func (b *tokenBucket) take(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
