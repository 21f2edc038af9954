// alsrecommend loads a model trained by alstrain plus the rating file it
// was trained on, and prints top-N recommendations for one or more users.
// Models trained with -compact carry their ID tables, so users are
// addressed — and items reported — by their original external IDs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

func main() {
	modelPath := flag.String("model", "", "model checkpoint written by alstrain -out")
	ratings := flag.String("ratings", "", "training rating file (to exclude already-rated items)")
	oneBased := flag.Bool("one-based", true, "IDs in the rating file start at 1")
	users := flag.String("users", "0", "comma-separated user IDs (external IDs for compact models)")
	n := flag.Int("n", 10, "recommendations per user")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "alsrecommend:", err)
		os.Exit(1)
	}
	if *modelPath == "" || *ratings == "" {
		fail(fmt.Errorf("need -model and -ratings"))
	}

	st, err := checkpoint.Load(checkpoint.OS, *modelPath)
	if err != nil {
		fail(err)
	}
	model := core.ModelOf(st)
	rated, err := core.AlignRatings(model, *ratings, *oneBased)
	if err != nil {
		fail(err)
	}

	for _, tok := range strings.Split(*users, ",") {
		orig, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			fail(fmt.Errorf("bad user id %q", tok))
		}
		u, ok := model.UserIndex(orig)
		if !ok {
			fail(fmt.Errorf("user %d not in the model", orig))
		}
		top := model.Recommend(rated, u, *n)
		fmt.Printf("user %d (rated %d items):\n", orig, rated.RowNNZ(u))
		for rank, item := range top {
			fmt.Printf("  %2d. item %-8d score %.3f\n", rank+1, model.ItemLabel(item), model.Predict(u, item))
		}
	}
}
