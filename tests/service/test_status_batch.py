"""``POST /status`` against a reference that parses and renders id by id.

A page view's filter misses are parsed, answered and rendered as one
batch (``ServiceApp._parse_batch``, ``ClusterFrontend.probe_many`` and
the miss template), and only its hits are read.  The reference is what
the handler did before that: ``_parse_identifier`` per id, the first
refusal in list order as the response, otherwise ``json.dumps`` over one
``_status_body`` dict per answer — a miss's answer built from the
filter's own verdict on that id, a hit's from a ``status_async`` read of
its own.  Status code and body bytes must agree on every batch.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cluster.frontend
import repro.core.identifiers
from repro.cluster.frontend import ClusterAnswer, ClusterFrontend
from repro.core.identifiers import PhotoIdentifier
from repro.service.app import ServiceApp
from repro.service.cluster import LiveCluster
from repro.service.errors import ApiError, error_envelope
from repro.service.protocol import HttpRequest

POPULATION = 48


def _post(ids):
    body = json.dumps({"ids": ids}).encode("utf-8")
    return HttpRequest("POST", "/status", "/status", {}, {}, body)


class Rig:
    """One app on one loop for every example."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.app = self.loop.run_until_complete(self._build())
        self.population = self.app.cluster.seed_population(
            POPULATION, revoked_fraction=0.25
        )
        self.claimed = [i.serial for i in self.population.identifiers]

    async def _build(self):
        return ServiceApp(LiveCluster(4))

    def dispatch(self, ids):
        return self.loop.run_until_complete(self.app.dispatch(_post(ids)))

    async def _answers(self, identifiers):
        """A miss's answer from the filter's verdict; the hits' from their own
        ``status_async`` reads, started in one tick as a view's hits are."""
        app, answers, reads = self.app, {}, {}
        for index, identifier in enumerate(identifiers):
            if app.frontend.filterset.might_be_revoked(identifier.to_compact()):
                reads[index] = app._call(
                    app.frontend.status_async, identifier,
                    use_filter=False, proof=False,
                )
            else:
                answers[index] = ClusterAnswer(identifier.to_string(), False, "filter")
        for index, read in reads.items():
            [(answers[index],)] = await read
        return [answers[index] for index in range(len(identifiers))]

    def reference(self, ids):
        """(status, body) as the handler rendered them id by id."""
        app = self.app
        try:
            identifiers = [app._parse_identifier(raw) for raw in ids]
        except ApiError as exc:
            return exc.status, json.dumps(error_envelope(exc.kind, exc.detail)).encode()
        answers = self.loop.run_until_complete(self._answers(identifiers))
        results = [app._status_body(answer)[1] for answer in answers]
        return 200, json.dumps({"results": results, "error": None}).encode()


@pytest.fixture(scope="module")
def rig():
    rig = Rig()
    yield rig
    rig.loop.close()


def _spellings(text):
    """Spellings of one serial that ``int()`` reads as it (never canonical)."""
    arabic = text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    underscored = "_".join(text) if len(text) > 1 else None
    return [
        s for s in (
            f"+{text}", f" {text}", f"{text} ", f"\n{text}\t", f"0{text}",
            "0" * 20 + text, arabic, underscored,
        ) if s is not None
    ]


@st.composite
def _ids(draw, claimed):
    serial = draw(
        st.sampled_from(claimed)  # revoked or not, as seeded
        | st.integers(0, 2**64 - 1)  # almost surely never claimed
        | st.sampled_from([0, 2**64 - 1])
    )
    canonical = f"irs1:irs1:{serial}"
    return draw(st.one_of(
        st.just(canonical),
        st.sampled_from([f"irs1:irs1:{s}" for s in _spellings(str(serial))]),
        st.sampled_from([
            "irs1:irs1:-1", f"irs1:irs1:{2**64}", "irs1:irs1:", "irs1:irs1:²",
            f"irs2:irs1:{serial}", f"irs1:other:{serial}", f"irs1:{serial}",
            f"{canonical}:0", f"{canonical}\n{canonical}", f"{canonical}\n", "",
            f" {canonical}", f"x{canonical}", f"x\n{canonical}",
        ]),
        st.sampled_from([serial, None, True, 1.5, [canonical], {"id": canonical}]),
    ))


@st.composite
def _batches(draw, claimed):
    # Mostly canonical, as a page view is; sometimes anything at all.
    canonical = st.sampled_from(claimed).map(lambda s: f"irs1:irs1:{s}")
    one = draw(st.sampled_from(["canonical", "mixed"]))
    ids = canonical if one == "canonical" else canonical | _ids(claimed)
    return draw(st.lists(ids, min_size=1, max_size=12))


def test_a_batch_answers_byte_for_byte_what_the_id_by_id_handler_did(rig):
    @settings(
        max_examples=250, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ids=_batches(rig.claimed))
    def check(ids):
        status, body, _ = rig.dispatch(ids)
        assert (status, body) == rig.reference(ids)
        if status == 200:
            revoked = {
                identifier.serial: rig.population.revoked(index)
                for index, identifier in enumerate(rig.population.identifiers)
            }
            for raw, result in zip(ids, json.loads(body)["results"]):
                serial = int(result["id"].rsplit(":", 1)[1])
                if serial in revoked:
                    assert result["revoked"] == revoked[serial], raw

    check()


def test_every_kind_of_id_gives_its_reference_answer(rig):
    """One id of each kind, alone and behind a canonical one."""
    claimed = rig.claimed[0]
    kinds = [
        f"irs1:irs1:{claimed}", *[f"irs1:irs1:{s}" for s in _spellings(str(claimed))],
        "irs1:irs1:-1", f"irs1:irs1:{2**64}", f"irs1:irs1:{2**64 - 1}",
        "irs2:irs1:5", "irs1:other:5", f"irs1:irs1:{claimed}\nirs1:irs1:{claimed}",
        f" irs1:irs1:{claimed}", f"xirs1:irs1:{claimed}", f"x\nirs1:irs1:{claimed}",
        5, None, ["irs1:irs1:5"],
    ]
    for raw in kinds:
        for ids in ([raw], [f"irs1:irs1:{claimed}", raw]):
            assert rig.dispatch(ids)[:2] == rig.reference(ids), ids


def test_a_page_view_renders_its_filter_hits_alone(monkeypatch):
    """A count beside the clock: h hits cost h answers, h callbacks, h dicts,
    h dumps and no string parse; a view with no hits never enters the read path."""
    calls = dict.fromkeys(
        ("dumps", "from_string", "status_body", "answers", "identifier_string",
         "status_many", "callbacks"), 0
    )

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def status_many_async(frontend, serials, callback, *args, **kwargs):
        calls["status_many"] += 1
        return real_status_many(
            frontend, serials, counted("callbacks", callback), *args, **kwargs
        )

    real_status_many = ClusterFrontend.status_many_async
    patches = [
        (json, "dumps", counted("dumps", json.dumps)),
        (PhotoIdentifier, "from_string",
         staticmethod(counted("from_string", PhotoIdentifier.from_string))),
        (ServiceApp, "_status_body", counted("status_body", ServiceApp._status_body)),
        (ClusterAnswer, "__init__", counted("answers", ClusterAnswer.__init__)),
        (ClusterFrontend, "status_many_async", status_many_async),
        *[
            (module, "identifier_string",
             counted("identifier_string", module.identifier_string))
            for module in (repro.core.identifiers, repro.cluster.frontend)
        ],
    ]

    async def inner():
        app = ServiceApp(LiveCluster(4))
        population = app.cluster.seed_population(64, revoked_fraction=0.1)
        misses = [
            identifier.to_string() for identifier in population.identifiers
            if not app.frontend.filterset.might_be_revoked(identifier.to_compact())
        ]
        view = _post([identifier.to_string() for identifier in population.identifiers])
        no_hit_view = _post(misses)
        for target, name, value in patches:
            monkeypatch.setattr(target, name, value)
        status, body, _ = await app.dispatch(view)
        counts = dict(calls)
        no_hits = await app.dispatch(no_hit_view)
        monkeypatch.undo()
        return status, json.loads(body)["results"], counts, no_hits, len(misses)

    status, results, counts, no_hits, misses = asyncio.run(inner())
    assert status == 200 and len(results) == 64
    hits = sum(result["source"] != "filter" for result in results)
    assert 2 <= hits < 16 and hits + misses == 64
    assert counts == {
        "dumps": hits, "from_string": 0, "status_body": hits, "answers": hits,
        "identifier_string": hits,  # each hit's answer names its id; no miss does
        "status_many": 1, "callbacks": hits,
    }
    assert no_hits[0] == 200 and len(json.loads(no_hits[1])["results"]) == misses
    assert calls == counts  # the no-hit view built nothing and read nothing
