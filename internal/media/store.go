// Package media implements the networked deployment of NeuroScaler: a
// media server that accepts ingest streams over TCP, selects and enhances
// anchor frames (locally or on remote enhancer nodes), packages hybrid
// containers, and serves them to viewers over HTTP; an enhancer service;
// and the streamer/viewer clients. It is the system of Figure 7 on plain
// stdlib networking.
package media

import (
	"fmt"
	"sync"
)

type storedChunk struct {
	data []byte
	// degraded marks a chunk shipped with at least one selected anchor
	// missing (dropped after enhancement failed).
	degraded bool
	// pending marks a packets-only container awaiting its fetch-time
	// enhancement build (lazy-enhancement mode): the stored bytes are
	// servable at the bilinear floor but not yet final.
	pending bool
}

// streamChunks is one stream's retained window of chunks. Sequence
// numbers are append positions and never shift: chunks[i] holds sequence
// base+i, and eviction advances base.
type streamChunks struct {
	base     int
	chunks   []storedChunk
	degraded int // degraded chunks ever appended (survives eviction)
	evicted  uint64
}

// ChunkStore holds hybrid-encoded chunks per stream for distribution.
// It is safe for concurrent use. A positive retention caps how many
// chunks each stream keeps: appending past the cap evicts the oldest
// chunk (its sequence number becomes a "gone" error, like a live
// playlist sliding forward).
type ChunkStore struct {
	mu sync.RWMutex
	// streams is guarded by mu.
	streams map[uint32]*streamChunks
	// retention is immutable after construction.
	retention int
}

// NewChunkStoreRetention returns an empty store keeping at most the last
// `retention` chunks per stream; zero or negative means unbounded.
func NewChunkStoreRetention(retention int) *ChunkStore {
	return &ChunkStore{streams: make(map[uint32]*streamChunks), retention: retention}
}

// AppendChunk stores the next chunk of a stream along with its
// degradation flag and returns its sequence number. When the stream is
// at its retention cap the oldest chunk is evicted.
//
// Ownership of chunk transfers to the store: callers must not modify or
// recycle the buffer afterwards, because Chunk hands the stored slice to
// HTTP readers without copying.
//
//nslint:slab-transfer chunk
func (s *ChunkStore) AppendChunk(streamID uint32, chunk []byte, degraded bool) int {
	return s.AppendChunkState(streamID, chunk, degraded, false)
}

// AppendChunkState stores the next chunk of a stream with its full
// state: the degradation flag and whether the chunk is still pending
// its fetch-time enhancement build (lazy-enhancement mode). Ownership
// of chunk transfers to the store, as with AppendChunk.
//
//nslint:slab-transfer chunk
func (s *ChunkStore) AppendChunkState(streamID uint32, chunk []byte, degraded, pending bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams[streamID]
	if st == nil {
		st = &streamChunks{}
		s.streams[streamID] = st
	}
	st.chunks = append(st.chunks, storedChunk{data: chunk, degraded: degraded, pending: pending})
	if degraded {
		st.degraded++
	}
	if s.retention > 0 && len(st.chunks) > s.retention {
		n := len(st.chunks) - s.retention
		// Release the evicted chunk bytes; copy down so the backing array
		// doesn't pin them.
		st.chunks = append(st.chunks[:0], st.chunks[n:]...)
		st.base += n
		st.evicted += uint64(n)
	}
	return st.base + len(st.chunks) - 1
}

func (s *ChunkStore) lookupLocked(streamID uint32, seq int) (storedChunk, error) {
	chunks, ok := s.streams[streamID]
	if !ok {
		return storedChunk{}, fmt.Errorf("media: unknown stream %d", streamID)
	}
	if seq < 0 || seq >= chunks.base+len(chunks.chunks) {
		return storedChunk{}, fmt.Errorf("media: stream %d has no chunk %d (have %d)",
			streamID, seq, chunks.base+len(chunks.chunks))
	}
	if seq < chunks.base {
		return storedChunk{}, fmt.Errorf("media: stream %d chunk %d evicted (retained window starts at %d)",
			streamID, seq, chunks.base)
	}
	return chunks.chunks[seq-chunks.base], nil
}

// ChunkState returns chunk seq of a stream along with its degradation
// and pending-enhancement flags.
func (s *ChunkStore) ChunkState(streamID uint32, seq int) (data []byte, degraded, pending bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.lookupLocked(streamID, seq)
	if err != nil {
		return nil, false, false, err
	}
	return c.data, c.degraded, c.pending, nil
}

// ReplaceChunk swaps in the finished container for a previously pending
// chunk (the fetch-time enhancement build writing its result back) and
// clears the pending flag. The per-stream degraded ledger tracks the
// final state. Ownership of chunk transfers to the store, as with
// AppendChunk. Replacing an evicted or unknown sequence is a no-op
// error: the build raced retention, and the freshly built bytes were
// already served to the fetcher.
//
//nslint:slab-transfer chunk
func (s *ChunkStore) ReplaceChunk(streamID uint32, seq int, chunk []byte, degraded bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[streamID]
	if !ok {
		return fmt.Errorf("media: unknown stream %d", streamID)
	}
	if seq < st.base || seq >= st.base+len(st.chunks) {
		return fmt.Errorf("media: stream %d chunk %d not retained", streamID, seq)
	}
	c := &st.chunks[seq-st.base]
	if c.degraded != degraded {
		if degraded {
			st.degraded++
		} else {
			st.degraded--
		}
	}
	*c = storedChunk{data: chunk, degraded: degraded}
	return nil
}

// Chunk returns chunk seq of a stream.
func (s *ChunkStore) Chunk(streamID uint32, seq int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.lookupLocked(streamID, seq)
	if err != nil {
		return nil, err
	}
	return c.data, nil
}

// ChunkCount returns the number of chunks ever appended to a stream
// (sequence numbers run [0, ChunkCount)); evicted chunks still count so
// numbering never rewinds.
func (s *ChunkStore) ChunkCount(streamID uint32) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[streamID]
	if !ok {
		return 0
	}
	return st.base + len(st.chunks)
}

// DegradedCount returns how many chunks of a stream were ever stored
// degraded (including since-evicted ones).
func (s *ChunkStore) DegradedCount(streamID uint32) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[streamID]
	if !ok {
		return 0
	}
	return st.degraded
}

// EvictedCount returns how many chunks of a stream have been evicted by
// the retention cap.
func (s *ChunkStore) EvictedCount(streamID uint32) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[streamID]
	if !ok {
		return 0
	}
	return st.evicted
}

// TotalEvicted returns the eviction count summed over all streams.
func (s *ChunkStore) TotalEvicted() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n uint64
	for _, st := range s.streams {
		n += st.evicted
	}
	return n
}

// OldestRetained returns the first sequence number still retained for a
// stream (0 when nothing has been evicted).
func (s *ChunkStore) OldestRetained(streamID uint32) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.streams[streamID]
	if !ok {
		return 0
	}
	return st.base
}
