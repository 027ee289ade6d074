package grid

import (
	"math"
	"strings"
	"testing"
)

func TestBoundsValidate(t *testing.T) {
	good := Bounds{MinLat: 0, MaxLat: 10, MinLon: -5, MaxLon: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Bounds{
		{MinLat: math.NaN(), MaxLat: 10, MinLon: 0, MaxLon: 10},
		{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: math.NaN()},
		{MinLat: 0, MaxLat: math.Inf(1), MinLon: 0, MaxLon: 10},
		{MinLat: 10, MaxLat: 0, MinLon: 0, MaxLon: 10}, // inverted lat
		{MinLat: 0, MaxLat: 10, MinLon: 10, MaxLon: 0}, // inverted lon
		{MinLat: 5, MaxLat: 5, MinLon: 0, MaxLon: 10},  // empty lat span
		{}, // all-zero: empty both
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bounds %+v: want validation error", b)
		}
	}
}

func TestReadRecordsCSV(t *testing.T) {
	const in = "lat,lon,count,price\n1.5,2.5,3,40\n0,9.25,1,-2.5\n"
	recs, err := ReadRecordsCSV(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Lat != 1.5 || recs[0].Lon != 2.5 || recs[0].Values[0] != 3 || recs[0].Values[1] != 40 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Values[1] != -2.5 {
		t.Errorf("record 1 = %+v", recs[1])
	}
}

func TestScanRecordsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad lat":    "lat,lon,v\nx,1,2\n",
		"bad lon":    "lat,lon,v\n1,x,2\n",
		"bad value":  "lat,lon,v\n1,2,x\n",
		"short row":  "lat,lon,v\n1,2\n",
		"long row":   "lat,lon,v\n1,2,3,4\n",
		"bad header": "lat,lon\n1,2,3\n",
	}
	for name, in := range cases {
		if err := ScanRecordsCSV(strings.NewReader(in), 1, func(Record) error { return nil }); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if err := ScanRecordsCSV(strings.NewReader("lat,lon\n"), -1, func(Record) error { return nil }); err == nil {
		t.Error("negative nattrs: want error")
	}
}

// TestScanRecordsCSVErrorDetail pins the diagnostic contract: arity errors
// carry the 1-based record index and the observed vs expected field counts.
func TestScanRecordsCSVErrorDetail(t *testing.T) {
	const in = "lat,lon,v\n1,2,3\n4,5,6\n7,8\n"
	err := ScanRecordsCSV(strings.NewReader(in), 1, func(Record) error { return nil })
	if err == nil {
		t.Fatal("want arity error")
	}
	for _, want := range []string{"record 3", "2 fields", "want 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	err = ScanRecordsCSV(strings.NewReader("lat,lon,v\n1,2,3\nx,2,3\n"), 1, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("parse error %q does not carry the record index", err)
	}
}

// TestScanRecordsCSVStripsBOM: a UTF-8 BOM on the first record must be
// transparent — same records, and a quoted first header field still parses.
func TestScanRecordsCSVStripsBOM(t *testing.T) {
	const body = "\"lat\",lon,count,price\n1.5,2.5,3,40\n0,9.25,1,-2.5\n"
	plain, err := ReadRecordsCSV(strings.NewReader(body), 2)
	if err != nil {
		t.Fatal(err)
	}
	bommed, err := ReadRecordsCSV(strings.NewReader("\xEF\xBB\xBF"+body), 2)
	if err != nil {
		t.Fatalf("BOM input rejected: %v", err)
	}
	if len(plain) != len(bommed) {
		t.Fatalf("record counts differ: %d vs %d", len(plain), len(bommed))
	}
	for i := range plain {
		if plain[i].Lat != bommed[i].Lat || plain[i].Lon != bommed[i].Lon {
			t.Errorf("record %d differs: %+v vs %+v", i, plain[i], bommed[i])
		}
	}
	// A BOM mid-stream is data, not a marker: it must still fail parsing.
	if _, err := ReadRecordsCSV(strings.NewReader("lat,lon,v\n\xEF\xBB\xBF1,2,3\n"), 1); err == nil {
		t.Error("mid-stream BOM unexpectedly accepted")
	}
}

func TestScanRecordsCSVCallbackStops(t *testing.T) {
	const in = "lat,lon,v\n1,1,1\n2,2,2\n3,3,3\n"
	seen := 0
	err := ScanRecordsCSV(strings.NewReader(in), 1, func(Record) error {
		seen++
		if seen == 2 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Errorf("err = %v, want errStop", err)
	}
	if seen != 2 {
		t.Errorf("callback ran %d times, want 2", seen)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }
