package mitigation

import (
	"errors"
	"testing"
)

func TestErrUnsupportedIsMatchable(t *testing.T) {
	if _, err := ParseKind("bogus"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("ParseKind error = %v, want ErrUnsupported", err)
	}
	for _, k := range []Kind{KindCATT, KindSiloz} {
		if _, err := (Spec{Kind: k}).RowDefense(4, 1); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("RowDefense(%v) error = %v, want ErrUnsupported", k, err)
		}
	}
	if err := (Spec{Kind: Kind(99)}).Validate(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Validate(kind 99) error = %v, want ErrUnsupported", err)
	}
	// Sentinels are distinct classes.
	if errors.Is(ErrUnsupported, ErrBudgetExhausted) {
		t.Fatal("sentinels alias each other")
	}
}

func TestErrBudgetExhaustedIsMatchable(t *testing.T) {
	sb := NewSilverBullet(1, 4, 10, 1)
	sb.OnActivate(Activation{Bank: 0, Row: 1, Count: 10}, nil)
	if err := sb.Health(); err != nil {
		t.Fatalf("healthy defense reported %v", err)
	}
	sb.OnActivate(Activation{Bank: 0, Row: 2, Count: 10}, nil)
	err := sb.Health()
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Health = %v, want wrapped ErrBudgetExhausted", err)
	}
	if errors.Is(err, ErrUnsupported) {
		t.Fatalf("Health = %v unexpectedly matches ErrUnsupported", err)
	}
}
