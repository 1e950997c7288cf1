// Package layeringbad is a golden-corpus package for the layering rule: it
// pokes raw flash operations and core mutation entry points from outside
// the allowed layer sets.
package layeringbad

import (
	"sync"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// RawProgram bypasses the FTL and programs flash directly: forbidden
// outside internal/ftl and internal/core.
func RawProgram(arr *flash.Array, at vclock.Time) error {
	oob := flash.OOB{Kind: flash.KindData}
	if _, _, err := arr.Program(0, nil, oob, at); err != nil { // want layering
		return err
	}
	_, err := arr.Erase(0, at) // want layering
	return err
}

// DirectWrite drives a member device directly instead of going through the
// array or the ftl.Device interface: forbidden for internal packages
// outside the declared layer set.
func DirectWrite(dev *core.TimeSSD, at vclock.Time) error {
	_, err := dev.Write(0, []byte("x"), at) // want layering
	if err != nil {
		return err
	}
	_, err = dev.Trim(0, at) // want layering
	return err
}

// lockedDevice is the shape the wire protocol's single-device back end had
// before a lone device became a 1-shard array: a mutex standing in for the
// firmware's one command interpreter, with the protocol layer driving the
// TimeSSD under it. The shard worker is that interpreter now, and the
// protocol layer is outside the layer set like any other package.
type lockedDevice struct {
	mu  sync.Mutex
	dev *core.TimeSSD
}

func (b *lockedDevice) Write(lpa uint64, data []byte, at vclock.Time) (vclock.Time, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dev.Write(lpa, data, at) // want layering
}

// DirectRetention pushes a retention bound straight at a member device:
// only the array's fan-out may do that.
func DirectRetention(dev *core.TimeSSD) {
	dev.SetMinRetention(vclock.Hour) // want layering
}

// TenantBypass mutates a volume and its lifecycle from outside the wire
// protocol / harness layer set.
func TenantBypass(svc *service.Service, v *service.Volume, at vclock.Time) error {
	if _, err := v.Write(0, []byte("x"), at); err != nil { // want layering
		return err
	}
	if _, err := v.RollBack(at.Add(-vclock.Minute), at); err != nil { // want layering
		return err
	}
	v.Batch([]service.BatchOp{{Kind: service.KindTrim, LPA: 0, At: at}}) // want layering
	if _, err := svc.Create("rogue", "", 1, 0, at); err != nil {         // want layering
		return err
	}
	_, err := svc.Delete("rogue", "", at) // want layering
	return err
}

// ReadsAreFine reads through the public query surface, which any layer may
// use.
func ReadsAreFine(arr *flash.Array, dev *core.TimeSSD, v *service.Volume, at vclock.Time) {
	_, _, _ = arr.PeekPage(0)
	_, _, _ = dev.Read(0, at)
	_, _, _ = v.Read(0, at)
	_ = v.WindowStart(at)
}
