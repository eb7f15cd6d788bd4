"""Names, units and meaning of every metric the benchmark reports.

END_TO_END metrics come from untraced runs. PER_LAYER metrics come from
a traced run: ``kind`` says how each is aggregated from the spans of one
pass (see tracing.per_layer), ``on`` names the workloads whose layer
work it measures (its value must be non-zero there), and ``moves`` names
the end-to-end metric and workload a change to that layer should move.
BENCHMARK.json lists the same names and units; check.py keeps the two
in step.
"""

WORKLOADS = ("selftest", "wide-snakes", "long-arcs")

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "item_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed with the end-to-end metrics but not gated. item_p50_ms: the
# middle items take 0.1-0.6 s, and on a shared 2-core machine ten runs
# of them spread by up to 0.28 of their median, beyond the largest
# bound. failed_frac is 0 on every accepted run (the result line carries
# attempted and failed). terms_per_s is a fixed term count over pass_s
# on each workload, and selftest cannot see it without wrappers.
REPORTED_ONLY = {
    "item_p50_ms": "ms",
    "terms_per_s": "1/s",
    "failed_frac": "ratio",
}

ALL = WORKLOADS
CLI = ("long-arcs",)
EXPANDS = ("selftest", "long-arcs")
FORMATS = ("wide-snakes", "long-arcs")

_SNAKECORE_MOVES = ("wide-snakes pass_s/terms_per_s/item_p90_ms/peak_rss_mb,"
                    " selftest pass_s")
SELFTEST_SECTIONS = ("golden-loop", "identities", "snakes", "bands",
                     "corners", "surfaces", "adjustments", "exchange",
                     "skein")

# name: (unit, kind, on, moves)
#   kind ("time", span names): summed duration of the outermost spans
#        of those names; ("self", names): summed self time;
#        ("calls", names): span count; ("work", names): summed work
#        counts recorded by the spans; ("ratio", a, b): metric a / b;
#        ("count", counter): a counter from the counting pass or the
#        workload itself.
PER_LAYER = {
    "cli.busy_s": ("s", ("time", "cli.main"), CLI, "long-arcs item_p50_ms"),
    "cli.self_s": ("s", ("self", "cli.main"), CLI, "long-arcs item_p50_ms"),
    "cli.calls": ("count", ("calls", "cli.main"), CLI,
                  "long-arcs item_p50_ms"),
    "cli.output_bytes": ("bytes", ("count", "output_bytes"), CLI,
                         "long-arcs item_p50_ms"),
    "surface.parse_s": ("s", ("self", "surface.triangulation_from_dict"),
                        CLI, "long-arcs pass_s/item_p50_ms"),
    "surface.validate_s": ("s", ("time", "surface.Triangulation.__init__"),
                           EXPANDS, "long-arcs pass_s/item_p50_ms"),
    "surface.triangles_validated": (
        "count", ("work", "surface.Triangulation.__init__"), EXPANDS,
        "long-arcs pass_s/item_p50_ms"),
    "surface.layout_s": ("s", ("time", "surface.arc_layout",
                               "surface.loop_layout"),
                         EXPANDS, "long-arcs pass_s, selftest pass_s"),
    "surface.expand_s": ("s", ("self", "surface.expand"), EXPANDS,
                         "long-arcs pass_s, selftest pass_s"),
    "surface.expand_by_matrices_s": (
        "s", ("self", "surface.expand_by_matrices"), EXPANDS,
        "long-arcs pass_s, selftest pass_s"),
    "snakecore.build_s": ("s", ("time", "snakecore.SnakeGraph.__init__",
                                "snakecore.BandGraph.__init__"),
                          ALL, _SNAKECORE_MOVES),
    "snakecore.enumerate_s": (
        "s", ("time", "snakecore.SnakeGraph.perfect_matchings",
              "snakecore.BandGraph.good_matchings"),
        ALL, _SNAKECORE_MOVES),
    "snakecore.enumerations": (
        "count", ("calls", "snakecore.SnakeGraph.perfect_matchings"), ALL,
        _SNAKECORE_MOVES),
    "snakecore.matchings": (
        "count", ("work", "snakecore.SnakeGraph.perfect_matchings"), ALL,
        _SNAKECORE_MOVES),
    "snakecore.height_s": ("s", ("time", "snakecore.SnakeGraph.height_mono"),
                           ALL, _SNAKECORE_MOVES),
    "snakecore.height_calls": (
        "count", ("calls", "snakecore.SnakeGraph.height_mono"), ALL,
        _SNAKECORE_MOVES),
    "snakecore.minimal_calls": (
        "count", ("calls", "snakecore.SnakeGraph.minimal_matching"), ALL,
        _SNAKECORE_MOVES),
    "snakecore.height_per_matching": (
        "ratio", ("ratio", "snakecore.height_calls", "snakecore.matchings"),
        ALL, _SNAKECORE_MOVES),
    "snakecore.minimal_per_enumeration": (
        "ratio", ("ratio", "snakecore.minimal_calls",
                  "snakecore.enumerations"),
        ALL, _SNAKECORE_MOVES),
    "snakecore.matching_route_s": (
        "s", ("time", "snakecore.SnakeGraph.enumerator_by_matchings",
              "snakecore.BandGraph.enumerator_by_matchings"),
        ALL, "wide-snakes pass_s/item_p90_ms"),
    "snakecore.matrix_route_s": (
        "s", ("time", "snakecore.SnakeGraph.enumerator_by_matrices",
              "snakecore.BandGraph.enumerator_by_matrices"),
        ALL, "wide-snakes pass_s/item_p90_ms"),
    "mpath.path_matrix_s": ("s", ("time", "mpath.path_matrix"),
                            ("selftest",), "selftest pass_s"),
    "mpath.chi_s": ("s", ("time", "mpath.chi"), ("selftest",),
                    "selftest pass_s"),
    "mpath.paths": ("count", ("calls", "mpath.path_for_curve"),
                    ("selftest",), "selftest pass_s"),
    "mpath.steps": ("count", ("work", "mpath.path_matrix"), ("selftest",),
                    "selftest pass_s"),
    "algebra.mat2_mul_s": ("s", ("time", "algebra.Mat2.__mul__"), ALL,
                           "wide-snakes pass_s, selftest pass_s"),
    "algebra.mat2_mul_calls": ("count", ("calls", "algebra.Mat2.__mul__"),
                               ALL, "wide-snakes pass_s, selftest pass_s"),
    "algebra.substitute_s": ("s", ("time", "algebra.Poly.substitute"),
                             EXPANDS, "long-arcs pass_s"),
    "algebra.substitute_calls": (
        "count", ("calls", "algebra.Poly.substitute"), EXPANDS,
        "long-arcs pass_s"),
    "algebra.format_s": ("s", ("time", "algebra.format_poly"), FORMATS,
                         "long-arcs item_p50_ms"),
    "algebra.format_bytes": ("bytes", ("work", "algebra.format_poly"),
                             FORMATS,
                             "long-arcs item_p50_ms"),
    "algebra.mono_new": ("count", ("count", "mono_new"), ALL,
                         "selftest pass_s"),
    "algebra.poly_mul": ("count", ("count", "poly_mul"), ALL,
                         "selftest pass_s, wide-snakes pass_s"),
    "algebra.poly_add": ("count", ("count", "poly_add"), ALL,
                         "wide-snakes pass_s, selftest pass_s"),
    "algebra.terms_out": ("count", ("count", "terms_out"), ALL,
                          "wide-snakes pass_s, selftest pass_s"),
    "skein.verify_s": ("s", ("time", "skein.verify_skein"), ("selftest",),
                       "selftest pass_s"),
    "skein.identities_s": ("s", ("time", "skein.check_matrix_identities"),
                           ("selftest",), "selftest pass_s"),
    "skein.instances": ("count", ("calls", "skein.verify_skein"),
                        ("selftest",), "selftest pass_s"),
}
for _section in SELFTEST_SECTIONS:
    PER_LAYER["selftest.%s_s" % _section] = (
        "s", ("count", "section:" + _section), ("selftest",),
        "selftest pass_s")
PER_LAYER["trace.overhead_frac"] = (
    "ratio", ("count", "overhead_frac"), (),
    "none: traced pass_s over untraced pass_s, minus 1")
PER_LAYER["trace.spans"] = ("count", ("count", "spans"), ALL,
                            "none: spans recorded in one traced pass")
