package experiments

import (
	"reflect"
	"testing"
)

func TestResolveTechniques(t *testing.T) {
	all := CampaignTechniques()
	for _, tc := range []struct {
		names   []string
		want    []string
		wantErr bool
	}{
		{names: nil, want: all},
		{names: []string{"all"}, want: all},
		{names: []string{"all", "BOGUS"}, wantErr: true},
		{names: []string{"BOGUS", "all"}, wantErr: true},
		{names: []string{"SMARTS", "SMARTS"}, want: []string{"SMARTS"}},
		{names: []string{"RSS", "all"}, want: append([]string{"RSS"}, without(all, "RSS")...)},
	} {
		got, err := ResolveTechniques(tc.names)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: got %v, want an error", tc.names, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: got %v, %v; want %v", tc.names, got, err, tc.want)
		}
	}
}

func without(names []string, drop string) []string {
	var out []string
	for _, n := range names {
		if n != drop {
			out = append(out, n)
		}
	}
	return out
}
