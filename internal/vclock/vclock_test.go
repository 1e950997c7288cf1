package vclock

import (
	"testing"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var epoch Time
	noon := epoch.Add(12 * Hour)
	if !epoch.Before(noon) || !noon.After(epoch) {
		t.Fatal("ordering broken")
	}
	if d := noon.Sub(epoch); d != 12*Hour {
		t.Fatalf("Sub = %v, want 12h", d)
	}
}

func TestTimeString(t *testing.T) {
	ts := Time(0).Add(2*Day + 3*Hour + 4*Minute + 5*Second + 6*Millisecond)
	if got, want := ts.String(), "2d03h04m05.006s"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestDurationAliases(t *testing.T) {
	if Day != 24*time.Hour {
		t.Fatalf("Day = %v", time.Duration(Day))
	}
}
