package wire

import "testing"

// TestHelloPriorityRoundTrip pins the hello's priority field: foreground
// and background hellos both round-trip their priority beside Content.
func TestHelloPriorityRoundTrip(t *testing.T) {
	base := Hello{Scale: 3, Content: "lol"}
	base.Config.Width, base.Config.Height, base.Config.FPS = 96, 64, 30
	for _, prio := range []uint8{0, 2} {
		in := base
		in.Priority = prio
		data, err := EncodeHello(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeHello(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Priority != prio || got.Content != "lol" {
			t.Errorf("decoded %+v, want priority %d content lol", got, prio)
		}
	}
}
