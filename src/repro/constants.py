"""Constants shared by the library and the command-line parser.

This module imports nothing, so ``repro.cli`` can build its argument
parser (and the text parser can check its format header) without
loading the aggregation, layout, analysis or trace-model code.  The
library modules that use each name re-export it from here.
"""

#: ``Timeline.render_svg(mode="auto")`` switches from per-message arrows
#: to aggregated bands above this many arrows.
AUTO_BAND_THRESHOLD = 2000

#: First line of every ``repro`` text trace (:mod:`repro.trace.writer`).
FORMAT_HEADER = "#repro-trace 1"
