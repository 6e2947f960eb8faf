"""Repository-wide pytest options.

``--record-results`` makes the paper-reproduction benchmarks under
``benchmarks/`` write their findings into the committed
``benchmarks/results/*.json``.  Without it they write into a temporary
directory, so a verification run leaves the tree unchanged.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="write benchmark findings into benchmarks/results/ "
             "(default: a temporary directory)",
    )
