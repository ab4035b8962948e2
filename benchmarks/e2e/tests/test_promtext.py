import pytest

import promtext

TEXT = """\
# HELP frontend_queries_total queries
# TYPE frontend_queries_total counter
frontend_queries_total 1200
service_responses_total{code="200"} 40
service_responses_total{code="504"} 2
frontend_batches_total{shard="shard-0"} 7
frontend_batch_size_bucket{le="1"} 3
frontend_batch_size_bucket{le="+Inf"} 9
frontend_batch_size_sum 21.5
frontend_batch_size_count 9
odd_label{detail="a \\"quoted\\", value",k="v"} 1e3
"""


def test_parse_and_totals():
    samples = promtext.parse(TEXT)
    assert promtext.total(samples, "frontend_queries_total") == 1200
    assert promtext.total(samples, "service_responses_total") == 42
    assert promtext.total(samples, "service_responses_total", code="504") == 2
    assert promtext.total(samples, "frontend_batch_size_sum") == 21.5
    assert promtext.total(samples, "odd_label", k="v") == 1000
    assert promtext.total(samples, "absent") == 0


def test_delta_between_two_scrapes():
    before = promtext.parse('a_total{x="1"} 5\n')
    after = promtext.parse('a_total{x="1"} 9\na_total{x="2"} 3\n')
    assert promtext.delta(before, after, "a_total") == 7
    assert promtext.delta(before, after, "a_total", x="2") == 3


def test_a_malformed_line_is_an_error_not_a_skip():
    with pytest.raises(ValueError):
        promtext.parse("this is not a sample\n")
