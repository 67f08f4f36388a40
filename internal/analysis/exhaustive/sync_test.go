package exhaustive

import (
	"reflect"
	"testing"

	"pgss/internal/pgsserrors"
)

// The analyzer's registry literals must track the live registries: an
// error kind added there without updating the analyzer would silently
// weaken every registered switch.

func TestErrorKindRegistryMatchesTaxonomy(t *testing.T) {
	want := pgsserrors.Kinds()
	got := Registry("errorkind")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("errorkind registry out of sync with pgsserrors.Kinds():\nanalyzer: %v\nlive:     %v", got, want)
	}
}
