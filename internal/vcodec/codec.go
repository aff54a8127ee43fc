// Package vcodec is a from-scratch block-based inter-frame video codec
// playing the role libvpx/VP9 plays in the paper. It provides the three
// frame tiers anchor selection depends on (key, alternative-reference,
// normal), GOP structure, block motion estimation/compensation with dual
// reference slots (LAST and ALTREF), DCT-quantized residual coding, and
// the codec-level introspection the paper patches into libvpx: per-frame
// frame type, residual size, motion vectors, and per-block reference
// choice are all returned alongside decoded pixels.
package vcodec

import (
	"errors"
	"fmt"

	"github.com/neuroscaler/neuroscaler/internal/frame"
)

// FrameType is the coding tier of a frame.
type FrameType uint8

const (
	// Key frames are intra coded and reset both reference slots; they
	// start a group of pictures.
	Key FrameType = iota
	// AltRef frames are invisible high-quality snapshots of a future
	// frame, used only as a prediction reference.
	AltRef
	// Inter frames are ordinary visible predicted frames.
	Inter
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case Key:
		return "key"
	case AltRef:
		return "altref"
	case Inter:
		return "inter"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// Reference slot identifiers recorded per block.
const (
	RefLast   uint8 = 0
	RefAltRef uint8 = 1
)

// MEBlock is the motion-estimation block edge in luma samples.
const MEBlock = 16

// RateMode selects the rate-control behaviour.
type RateMode uint8

const (
	// ModeConstrainedVBR keeps per-frame bits within [0.5, 1.5]× of the
	// per-frame target and enables alternative reference frames; this is
	// the paper's NeuroScaler ingest configuration (Appendix B).
	ModeConstrainedVBR RateMode = iota
	// ModeCBR tracks the target tightly and disables altref frames,
	// matching the default CBR configuration the paper compares against.
	ModeCBR
)

// Config describes an encoding session.
type Config struct {
	Width, Height int
	// FPS is the nominal frame rate, used to convert bitrate to a
	// per-frame bit budget.
	FPS int
	// BitrateKbps is the target bitrate.
	BitrateKbps int
	// GOP is the key-frame interval in display frames (the paper uses
	// 120 = 2 s at 60 fps).
	GOP int
	// AltRefInterval is the display-frame spacing of altref frames; it
	// is ignored under ModeCBR. Zero selects the default of 8.
	AltRefInterval int
	// Mode selects rate control.
	Mode RateMode
	// SearchRange is the motion search radius in pixels; zero selects
	// the default of 8.
	SearchRange int
}

// Validate checks c against the limits an encoding session (and a decoder
// sized from it) accepts, filling the defaults of AltRefInterval and
// SearchRange when they are zero.
func (c *Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return errors.New("vcodec: dimensions must be positive")
	}
	if c.Width > 1<<15 || c.Height > 1<<15 {
		return errors.New("vcodec: dimensions too large")
	}
	if c.FPS <= 0 {
		return errors.New("vcodec: fps must be positive")
	}
	if c.BitrateKbps <= 0 {
		return errors.New("vcodec: bitrate must be positive")
	}
	if c.GOP <= 0 {
		return errors.New("vcodec: GOP must be positive")
	}
	if c.AltRefInterval == 0 {
		c.AltRefInterval = 8
	}
	if c.AltRefInterval < 2 {
		return errors.New("vcodec: altref interval must be >= 2")
	}
	if c.SearchRange == 0 {
		c.SearchRange = 8
	}
	if c.SearchRange < 1 || c.SearchRange > 64 {
		return errors.New("vcodec: search range out of [1, 64]")
	}
	return nil
}

// grid returns the motion block grid for the configured frame size.
func (c *Config) grid() frame.BlockGrid {
	return frame.BlockGrid{FrameW: c.Width, FrameH: c.Height, Block: MEBlock}
}

// Info is the codec-level side information the anchor selector and the
// selective-SR reconstructor consume. It corresponds to the data the
// paper's modified vpx_codec_get_frame returns.
type Info struct {
	// DisplayIndex is the index of the frame in display order. For an
	// altref packet it is the index of the future frame it snapshots.
	DisplayIndex int
	Type         FrameType
	// Visible is false only for altref frames.
	Visible bool
	// ResidualBytes approximates the total residual pixel value as the
	// size of the encoded residual section (§5.1: "the total residual
	// pixel value is approximated as the size of an encoded residual
	// frame"). Zero for key frames.
	ResidualBytes int
	// Bytes is the full packet size.
	Bytes int
	// Quality is the quantizer quality (1-100, higher = finer) used.
	Quality int
	// MVs holds one motion vector per MEBlock×MEBlock block in raster
	// order; nil for key frames.
	MVs []frame.MotionVector
	// Refs holds the per-block reference slot (RefLast or RefAltRef);
	// nil for key frames.
	Refs []uint8
}

// Packet is one encoded frame plus its side information.
type Packet struct {
	Data []byte
	Info Info
}

// Stream bundles the stream-level header with encoded packets; it is the
// unit stored by the media server and consumed by the hybrid codec.
type Stream struct {
	Config  Config
	Packets []Packet
}

// TotalBytes returns the byte size of all packets.
func (s *Stream) TotalBytes() int {
	n := 0
	for _, p := range s.Packets {
		n += len(p.Data)
	}
	return n
}

// BitrateKbps returns the achieved bitrate given the stream's FPS.
func (s *Stream) BitrateKbps() float64 {
	visible := 0
	for _, p := range s.Packets {
		if p.Info.Visible {
			visible++
		}
	}
	if visible == 0 {
		return 0
	}
	seconds := float64(visible) / float64(s.Config.FPS)
	return float64(s.TotalBytes()) * 8 / 1000 / seconds
}
