package experiments

// paper is one number the paper states and the band the reproduction is
// held to: |measured - Value| <= Tol.
type paper struct {
	Figure, Row, Metric string
	Value, Tol          float64
	Note                string
}

// paperTable is the only place a paper number or a tolerance lives: the
// shape tests hold the Report to it, and Render prints it under each
// figure (cmd/figures' output, EXPERIMENTS.md's generated block). A row
// naming a value the Report lacks fails TestPaperTable. Bands are
// absolute, in the metric's unit, and sized to the one recorded scale
// (FIGURES.json pins the values themselves exactly); every band wider
// than 10% of its paper value says why in its Note.
var paperTable = []paper{
	{"fig1", "wordpress", "hottest%", 11, 1.5, "paper gives the range 10-12%"},
	{"fig1", "drupal", "hottest%", 11, 1.5, ""},
	{"fig1", "mediawiki", "hottest%", 11, 1.5, ""},
	{"fig1", "wordpress", "funcs@65%", 100, 40, "about 100 in the paper; our apps have far fewer leaf functions in all (column funcs), so an equally flat profile reaches 65% sooner"},
	{"fig1", "drupal", "funcs@65%", 100, 40, ""},
	{"fig1", "mediawiki", "funcs@65%", 100, 40, ""},
	{"fig1-cdf", "specweb-banking", "top6", 90, 5, "SPECWeb2005: ~90% of cycles in a few functions"},
	{"fig1-cdf", "specweb-ecommerce", "top6", 90, 5, ""},
	{"fig2a", "64K/32K", "BTB-hit%", 95.85, 1, ""},
	{"fig2c", "8-wide OoO", "step-gain%", 1.5, 1.5, "paper: under 3% from 4-wide to 8-wide"},
	{"mpki", "wordpress", "MPKI", 17.26, 0.5, ""},
	{"mpki", "drupal", "MPKI", 14.48, 0.5, ""},
	{"mpki", "mediawiki", "MPKI", 15.14, 0.5, ""},
	{"mpki", "spec", "MPKI", 2.9, 0.3, "the paper's ~2.9 is a SPEC CPU2006 suite average; ours is one synthetic profile"},
	{"fig3", "refcount_helper [refcount]", "after%", 0, 0, "the mitigated overheads' bars vanish"},
	{"fig3", "type_check [typecheck]", "after%", 0, 0, ""},
	{"fig7", "256", "hit%", 80, 13, "~80% in the paper; our synthetic working set is more compact than WordPress's, so the curve saturates one step earlier"},
	{"fig8bc", "wordpress", "max/min", 1, 3, "flat lines in the paper; ours moves inside one small band as samples land at different points of a request, and does not grow"},
	{"fig8bc", "mediawiki", "max/min", 1, 3, ""},
	{"fig14", "average", "mitigated%", 88.15, 0.5, ""},
	{"fig14", "average", "accelerated%", 70.22, 1, ""},
	{"fig14", "average", "rel.gain%", 19.79, 1.9, ""},
	{"fig14", "average", "energy-save%", 21.01, 2, ""},
	{"fig14", "wordpress", "energy-save%", 26.06, 2, ""},
	{"fig14", "drupal", "energy-save%", 16.75, 1, ""},
	{"fig14", "mediawiki", "energy-save%", 19.81, 5, "the one per-application number the model misses by more than 2 points; the average is inside 2"},
	{"fig15", "average", "hash-table", 6.45, 0.6, ""},
	{"fig15", "average", "heap-manager", 7.29, 1, "overshoots; the paper's ordering heap > hash > string > regexp holds"},
	{"fig15", "average", "string-accelerator", 4.51, 0.6, "undershoots; Drupal spends almost no time in strings here (fig5) and gains almost nothing"},
	{"fig15", "average", "regexp-accelerator", 1.96, 1.1, "the paper's smallest bar and ours; overshoots"},
	{"keys", "wordpress", "keys<=24B%", 95, 1.5, ""},
	{"keys", "drupal", "keys<=24B%", 95, 1.5, ""},
	{"keys", "mediawiki", "keys<=24B%", 95, 1.5, ""},
	{"keys", "wordpress", "SET%", 20, 5.5, "paper gives the range 15-25%"},
	{"keys", "drupal", "SET%", 20, 5.5, ""},
	{"keys", "mediawiki", "SET%", 20, 5.5, ""},
	{"uops", "malloc", "uops", 69, 0, ""},
	{"uops", "free", "uops", 37, 0, ""},
	{"uops", "hash-walk", "uops", 90.66, 7, "the paper's is an average over all walks, ours the cost of the typical one"},
	{"general", "laravel", "rel.gain%", 19.79, 4, "no number in the paper: its conclusion expects other frameworks to gain like the three studied apps, whose average this is"},
	{"general", "symfony", "rel.gain%", 19.79, 4, ""},
}
