"""Domain model: stops, routes, validation, and templates."""

import pytest

from droneprivacy import (
    CustomerSite,
    DroneSpec,
    RouteTemplate,
    Scenario,
    Stop,
    UnknownIdError,
    VendorSite,
    abstract_scenario,
    parse_route,
    parse_stop,
    validate_route,
)


def test_parse_stop_kinds():
    assert parse_stop("v3") == Stop("v", 3)
    assert parse_stop(" d12 ") == Stop("d", 12)
    assert parse_stop("a1") == Stop("a", 1)


@pytest.mark.parametrize("bad", ["x1", "v", "1", "va1", "v-1", ""])
def test_parse_stop_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_stop(bad)


def test_parse_route_tolerates_whitespace():
    route = parse_route(" v1 ,v2, a2 ")
    assert route.tokens == "v1,v2,a2"
    assert parse_route(route.tokens) == route
    assert str(route) == route.tokens
    assert [str(stop) for stop in route] == [stop.token for stop in route] == ["v1", "v2", "a2"]


def test_parse_route_empty_rejected():
    with pytest.raises(ValueError):
        parse_route("  ,  ")


def test_worked_example_is_valid_at_capacity_two():
    scenario = abstract_scenario(3)
    route = parse_route("v1,v2,a2,v3,a3,a1")
    assert validate_route(route, scenario, DroneSpec(capacity=2)).ok


def test_customer_before_vendor_is_precedence_violation_at_index_zero():
    scenario = abstract_scenario(1)
    result = validate_route(parse_route("a1,v1"), scenario, DroneSpec(capacity=1))
    assert not result.ok
    assert result.rule == "precedence"
    assert result.index == 0


def test_third_pickup_overflows_capacity_two_at_index_two():
    scenario = abstract_scenario(3)
    result = validate_route(parse_route("v1,v2,v3,a1,a2,a3"), scenario, DroneSpec(capacity=2))
    assert not result.ok
    assert result.rule == "capacity"
    assert result.index == 2
    # the same route is fine with one more slot
    assert validate_route(parse_route("v1,v2,v3,a1,a2,a3"), scenario, DroneSpec(capacity=3)).ok


def test_unknown_id_raises_distinct_error():
    scenario = abstract_scenario(2)
    with pytest.raises(UnknownIdError):
        validate_route(parse_route("v1,v9,a1,a9"), scenario, DroneSpec(capacity=2))
    # d1 does not exist here: vendor 1 is real, not a decoy
    with pytest.raises(UnknownIdError):
        validate_route(parse_route("d1,v1,a1,v2,a2"), scenario, DroneSpec(capacity=2))


def test_duplicate_and_missing_stops_are_completeness_violations():
    scenario = abstract_scenario(2)
    drone = DroneSpec(capacity=2)
    dup = validate_route(parse_route("v1,v1,a1,v2,a2"), scenario, drone)
    assert (dup.rule, dup.index) == ("completeness", 1)
    missing = validate_route(parse_route("v1,a1"), scenario, drone)
    assert missing.rule == "completeness"
    assert missing.index == 2  # reported at route end
    extra = validate_route(parse_route("v1,a1,v2,a2,a1"), scenario, drone)
    assert (extra.rule, extra.index) == ("completeness", 4)


def test_decoy_stops_do_not_consume_capacity():
    scenario = abstract_scenario(1, n_decoys=2)
    drone = DroneSpec(capacity=1)
    assert validate_route(parse_route("v1,d1,d2,a1"), scenario, drone).ok


def test_decoy_repeat_is_forbidden():
    scenario = abstract_scenario(1, n_decoys=1)
    result = validate_route(parse_route("v1,d1,d1,a1"), scenario, DroneSpec(capacity=1))
    assert (result.rule, result.index) == ("completeness", 2)


def test_trailing_decoys_are_legal():
    scenario = abstract_scenario(1, n_decoys=1)
    assert validate_route(parse_route("v1,a1,d1"), scenario, DroneSpec(capacity=1)).ok


def test_validation_without_a_drone_skips_only_capacity():
    scenario = abstract_scenario(3, n_decoys=1)
    route = parse_route("v1,v2,v3,d1,a1,a2,a3")
    assert validate_route(route, scenario).ok
    assert validate_route(route, scenario, DroneSpec(capacity=2)).rule == "capacity"
    result = validate_route(parse_route("v1,a2,v2,a1,v3,a3"), scenario)
    assert (result.rule, result.index) == ("precedence", 1)
    assert validate_route(parse_route("v1,a1,v2,a2"), scenario).rule == "completeness"


def test_route_length_is_orders_twice_plus_decoys():
    scenario = abstract_scenario(2, n_decoys=2)
    route = parse_route("v1,d2,a1,v2,d1,a2")
    assert validate_route(route, scenario, DroneSpec(capacity=2)).ok
    assert len(route) == 2 * scenario.n + sum(s.kind == "d" for s in route)


def test_scenario_rejects_bad_wiring():
    with pytest.raises(ValueError):
        Scenario(vendors=(), customers=())
    with pytest.raises(ValueError):  # duplicate real vendor ids
        Scenario(
            vendors=(VendorSite(1, 0, 0), VendorSite(1, 1, 0)),
            customers=(CustomerSite(1, 0, 1, vendor_id=1), CustomerSite(2, 1, 1, vendor_id=1)),
        )
    with pytest.raises(ValueError):  # customer references a decoy
        Scenario(
            vendors=(VendorSite(1, 0, 0), VendorSite(2, 1, 0, decoy=True)),
            customers=(CustomerSite(1, 0, 1, vendor_id=1), CustomerSite(2, 1, 1, vendor_id=2)),
        )
    with pytest.raises(ValueError):  # vendor 2 unreferenced, vendor 1 used twice
        Scenario(
            vendors=(VendorSite(1, 0, 0), VendorSite(2, 1, 0)),
            customers=(CustomerSite(1, 0, 1, vendor_id=1), CustomerSite(2, 1, 1, vendor_id=1)),
        )


def test_drone_spec_bounds():
    with pytest.raises(ValueError):
        DroneSpec(capacity=0)
    with pytest.raises(ValueError):
        DroneSpec(capacity=1, speed=0)
    with pytest.raises(ValueError):
        DroneSpec(capacity=1, stop_duration=-1)
    with pytest.raises(ValueError, match="speed must be positive"):
        DroneSpec(capacity=1, speed=float("nan"))
    with pytest.raises(ValueError, match="stop duration must be non-negative"):
        DroneSpec(capacity=1, stop_duration=float("nan"))
    with pytest.raises(ValueError, match="speed must be positive and finite"):
        DroneSpec(capacity=1, speed=float("inf"))
    with pytest.raises(ValueError, match="stop duration must be non-negative and finite"):
        DroneSpec(capacity=1, stop_duration=float("inf"))


def test_template_must_alternate_and_stay_homogeneous():
    v1, v2, a1, a2 = Stop("v", 1), Stop("v", 2), Stop("a", 1), Stop("a", 2)
    RouteTemplate(((v1, v2), (a1, a2)))  # fine
    with pytest.raises(ValueError):
        RouteTemplate(((a1,), (v1,)))  # customer group first
    with pytest.raises(ValueError):
        RouteTemplate(((v1, a1),))  # mixed group
    with pytest.raises(ValueError):
        RouteTemplate(((v1,), (a1,), (a2,)))  # two customer groups in a row
    with pytest.raises(ValueError, match="at least one group"):
        RouteTemplate(())
    with pytest.raises(ValueError, match="group 0 is empty"):
        RouteTemplate(((),))


def test_stop_rejects_an_unknown_kind_or_a_negative_id():
    with pytest.raises(ValueError, match="unknown stop kind"):
        Stop("x", 1)
    with pytest.raises(ValueError, match="must be non-negative"):
        Stop("v", -1)


@pytest.mark.parametrize("capacity", [2.5, 3.0, True, False, "3", None])
def test_drone_capacity_must_be_an_integer(capacity):
    """A capacity of 2.5 used to pass, and enumeration then walked the routes of capacity 3, which
    validation refused for the same drone."""
    with pytest.raises(ValueError, match=f"capacity must be an integer, got {capacity!r}"):
        DroneSpec(capacity)


def test_template_flatten_sorts_groups_by_default():
    template = RouteTemplate(((Stop("v", 2), Stop("v", 1)), (Stop("a", 1),)))
    assert template.flatten().tokens == "v1,v2,a1"


_UNKNOWN = "UnknownIdError"

# (route, capacity or None, verdict): a ValidationResult's (ok, rule, index, message), or UnknownIdError's message.
# On abstract_scenario(3, n_decoys=2); an unknown id is refused where the walk meets it, even past a rule the
# route breaks later, and a rule broken first wins over a later unknown id.
VALIDATION_VERDICTS = [
    ("v1,v4,a1,a4", 2, (_UNKNOWN, "scenario has no site for stop v4")),
    ("v1,d3,a1", 2, (_UNKNOWN, "scenario has no site for stop d3")),
    ("v1,a1,a7", 2, (_UNKNOWN, "scenario has no site for stop a7")),
    ("v0,a0", None, (_UNKNOWN, "scenario has no site for stop v0")),
    ("a5,v1", None, (_UNKNOWN, "scenario has no site for stop a5")),
    ("d9,v1,a1,v2,a2,v3,a3", None, (_UNKNOWN, "scenario has no site for stop d9")),
    ("v1,a9,a1", None, (_UNKNOWN, "scenario has no site for stop a9")),
    ("v9,v1,v1", 2, (_UNKNOWN, "scenario has no site for stop v9")),
    ("v1,v2,v3,v4", 3, (_UNKNOWN, "scenario has no site for stop v4")),
    ("v1,v1,v9", 2, (False, "completeness", 1, "vendor v1 visited twice")),
    ("v1,a1,v1,a1", 2, (False, "completeness", 2, "vendor v1 visited twice")),
    ("v1,v2,v1,a1", 2, (False, "completeness", 2, "vendor v1 visited twice")),
    ("v1,v2,v3,v1,a1", 3, (False, "completeness", 3, "vendor v1 visited twice")),
    ("v1,d1,d1,a1,v2,a2,v3,a3", 2, (False, "completeness", 2, "decoy d1 visited twice")),
    ("d2,v1,d2", None, (False, "completeness", 2, "decoy d2 visited twice")),
    ("v1,a1,a1,v2,a2,v3,a3", 2, (False, "completeness", 2, "customer a1 visited twice")),
    ("a1,v1,v2,a2,v3,a3", 2, (False, "precedence", 0, "customer a1 visited before its vendor v1")),
    ("v1,a2,v2,a1,v3,a3", None, (False, "precedence", 1, "customer a2 visited before its vendor v2")),
    ("v1,v2,a1,a3,v3,a2", 3, (False, "precedence", 3, "customer a3 visited before its vendor v3")),
    ("v1,a1", 2, (False, "completeness", 2, "customers never visited: a2, a3")),
    ("v2,a2,d1", None, (False, "completeness", 3, "customers never visited: a1, a3")),
    ("d1,d2", 2, (False, "completeness", 2, "customers never visited: a1, a2, a3")),
    ("v1,v2,a1,a2", None, (False, "completeness", 4, "customers never visited: a3")),
    ("v1,v2,v3,a1,a2,a3", 2, (False, "capacity", 2, "picking up at v3 would load 3 items (capacity 2)")),
    ("v1,d1,v2,d2,v3,a3,a2,a1", 2, (False, "capacity", 4, "picking up at v3 would load 3 items (capacity 2)")),
    ("v1,v2,a1,v3,a2,a3", 1, (False, "capacity", 1, "picking up at v2 would load 2 items (capacity 1)")),
    ("v1,v2,v3,a3,a2,a1", 3, (True, None, None, "")),
    ("v1,v2,d1,a1,v3,a2,a3", 2, (True, None, None, "")),
]


@pytest.mark.parametrize("tokens, capacity, verdict", VALIDATION_VERDICTS)
def test_validation_verdicts_are_pinned(tokens, capacity, verdict):
    scenario, route = abstract_scenario(3, n_decoys=2), parse_route(tokens)
    drone = None if capacity is None else DroneSpec(capacity)
    if verdict[0] == _UNKNOWN:
        with pytest.raises(UnknownIdError) as refused:
            validate_route(route, scenario, drone)
        assert str(refused.value) == verdict[1]
    else:
        result = validate_route(route, scenario, drone)
        assert (result.ok, result.rule, result.index, result.message) == verdict


def test_decoy_and_real_vendor_ids_are_separate_id_spaces():
    """On one order and decoys 1..3: ``v2`` and ``a3`` are unknown although ``d2`` and ``d3`` exist."""
    scenario = abstract_scenario(1, n_decoys=3)
    assert validate_route(parse_route("v1,d2,a1"), scenario).ok
    for tokens, unknown in (("v2,a1", "v2"), ("v1,d3,a1,a3", "a3"), ("v1,a1,d4", "d4")):
        with pytest.raises(UnknownIdError, match=f"^scenario has no site for stop {unknown}$"):
            validate_route(parse_route(tokens), scenario)
