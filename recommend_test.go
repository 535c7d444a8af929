package rdfviews

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"rdfviews/internal/cq"
	"rdfviews/internal/datagen"
	"rdfviews/internal/rdf"
	"rdfviews/internal/workload"
)

const museumWorkload = `
q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatIn, Y)
q(X) :- t(X, rdf:type, painting), t(X, isExpIn, louvre)
q(Y) :- t(X, isLocatIn, Y), t(X, rdf:type, picture), t(X, isExpIn, Z)`

var postOptions = Options{Reasoning: ReasoningPost, MaxStates: 300, Timeout: time.Minute}

// sameRecommendation fails the test unless two recommendations agree on
// their views, rewritings, search counters and costs, bit for bit.
func sameRecommendation(t *testing.T, what string, a, b *Recommendation) {
	t.Helper()
	ra, rb := a.Result(), b.Result()
	switch {
	case !slices.Equal(a.ViewDefinitions(), b.ViewDefinitions()):
		t.Errorf("%s: views differ:\n%v\n%v", what, a.ViewDefinitions(), b.ViewDefinitions())
	case !slices.Equal(a.Rewritings(), b.Rewritings()):
		t.Errorf("%s: rewritings differ:\n%v\n%v", what, a.Rewritings(), b.Rewritings())
	case ra.Counters != rb.Counters:
		t.Errorf("%s: counters %+v and %+v", what, ra.Counters, rb.Counters)
	case ra.BestCost != rb.BestCost || ra.InitialCost != rb.InitialCost:
		t.Errorf("%s: costs %+v/%+v and %+v/%+v", what, ra.BestCost, ra.InitialCost, rb.BestCost, rb.InitialCost)
	}
}

// TestRecommendPostReusesStatistics checks the derived-state cache under
// post-reformulation: recommendations over an unchanged database share one
// statistics provider, a data or schema write forces a new one, and the
// recommendation after the write is the one a fresh database holding the
// same data gives.
func TestRecommendPostReusesStatistics(t *testing.T) {
	const moreData = "m5 rdf:type painting .\nm5 isExpIn louvre .\nm6 isLocatIn prado ."
	const moreSchema = "isLocatIn rdfs:range place ."
	recommend := func(db *Database, w *Workload) *Recommendation {
		t.Helper()
		rec, err := db.Recommend(w, postOptions)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	// fresh replays the loads on a new database, parsing the workload at
	// the same point, so both dictionaries assign the same IDs.
	fresh := func(extra func(*Database)) *Recommendation {
		db := NewDatabase()
		db.MustLoadGraphString(museumData)
		db.MustLoadSchemaString(museumSchema)
		w := db.MustParseWorkload(museumWorkload)
		extra(db)
		return recommend(db, w)
	}

	db := NewDatabase()
	db.MustLoadGraphString(museumData)
	db.MustLoadSchemaString(museumSchema)
	w := db.MustParseWorkload(museumWorkload)
	first := recommend(db, w)
	second := recommend(db, w)
	if first.estimator.Stats != second.estimator.Stats {
		t.Error("two recommendations over an unchanged database built two providers")
	}
	if first.schema != second.schema {
		t.Error("two recommendations over an unchanged database encoded the schema twice")
	}
	sameRecommendation(t, "repeat", first, second)
	// Saturated answers share the cache entry: same pin, same schema.
	if _, err := db.Answer(w.Queries[0], ReasoningSaturate); err != nil {
		t.Fatal(err)
	}
	if db.derived.sat == nil || db.derived.reform != second.estimator.Stats {
		t.Error("saturated copy and reformulated statistics are not cached side by side")
	}

	db.MustLoadGraphString(moreData)
	afterData := recommend(db, w)
	if afterData.estimator.Stats == second.estimator.Stats {
		t.Error("a data write did not force new statistics")
	}
	sameRecommendation(t, "after data write", afterData, fresh(func(db *Database) {
		db.MustLoadGraphString(moreData)
	}))

	db.MustLoadSchemaString(moreSchema)
	afterSchema := recommend(db, w)
	if afterSchema.estimator.Stats == afterData.estimator.Stats {
		t.Error("a schema write did not force new statistics")
	}
	sameRecommendation(t, "after schema write", afterSchema, fresh(func(db *Database) {
		db.MustLoadGraphString(moreData)
		db.MustLoadSchemaString(moreSchema)
	}))
}

// TestRecommendPostConcurrent shares one empty derived-state cache between
// recommendations and saturated answers running at once; every
// recommendation must match the one a twin database gives serially.
func TestRecommendPostConcurrent(t *testing.T) {
	newDB := func() (*Database, *Workload) {
		db := NewDatabase()
		db.MustLoadGraphString(museumData)
		db.MustLoadSchemaString(museumSchema)
		return db, db.MustParseWorkload(museumWorkload)
	}
	twin, tw := newDB()
	want, err := twin.Recommend(tw, postOptions)
	if err != nil {
		t.Fatal(err)
	}
	db, w := newDB()
	var wg sync.WaitGroup
	recs := make([]*Recommendation, 4)
	errs := make([]error, 4)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				if _, errs[i] = db.Answer(w.Queries[0], ReasoningSaturate); errs[i] != nil {
					return
				}
			}
			recs[i], errs[i] = db.Recommend(w, postOptions)
		}(i)
	}
	wg.Wait()
	for i, rec := range recs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameRecommendation(t, "concurrent", want, rec)
	}
}

// TestRecommendRepeatsBitForBit runs the same recommendation twice on
// generated data, where states hold many views and joins, and requires the
// best cost and RCR to repeat exactly: the cost sums no longer depend on
// map iteration order.
func TestRecommendRepeatsBitForBit(t *testing.T) {
	db := generatedDatabase(2000)
	w := &Workload{Queries: generatedWorkload(db, 6, 4, 7)}
	for _, strategy := range []Strategy{StrategyDFS, StrategyGSTR} {
		opts := Options{Strategy: strategy, Reasoning: ReasoningPost, MaxStates: 400, Timeout: time.Minute}
		var first *Recommendation
		for run := 0; run < 3; run++ {
			rec, err := db.Recommend(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = rec
				continue
			}
			a, b := first.Result().BestCost.Total, rec.Result().BestCost.Total
			if math.Float64bits(a) != math.Float64bits(b) || math.Float64bits(first.RCR()) != math.Float64bits(rec.RCR()) {
				t.Errorf("%s run %d: best cost %v (RCR %v), first run %v (RCR %v)",
					strategy, run, b, rec.RCR(), a, first.RCR())
			}
		}
	}
}

// generatedDatabase holds n Barton-like triples (internal/datagen, seed 1)
// and the fixed 2011-seed schema.
func generatedDatabase(n int) *Database {
	st, _ := datagen.Generate(datagen.Config{Triples: n, Seed: 1})
	return &Database{st: st, schema: datagen.GenerateSchema(datagen.Config{Seed: 2011})}
}

// generatedWorkload draws low-commonality queries over the generated
// dataset's vocabulary.
func generatedWorkload(db *Database, queries, atoms int, seed int64) []*cq.Query {
	var props, consts []string
	for i := 0; i < 16; i++ {
		props = append(props, datagen.PropName(i))
	}
	props = append(props, rdf.RDFType)
	for i := 0; i < 24; i++ {
		consts = append(consts, datagen.ResourceName(i))
	}
	for i := 0; i < 8; i++ {
		consts = append(consts, datagen.ClassName(i))
	}
	return workload.Generate(db.st.Dict(), workload.Spec{
		Queries: queries, AtomsPerQuery: atoms, Commonality: workload.Low,
		PropVocab: props, ConstVocab: consts, Seed: seed,
	})
}
