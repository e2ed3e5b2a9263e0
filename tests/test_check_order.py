"""The order rule of the checks: a report does not depend on the order of
the checks run before it or on what is already cached."""

import copy
import itertools

from conftest import PACKAGE_CACHES

from tau_forge import cli, funq, qhirota


def _clear():
    for cached in PACKAGE_CACHES:
        cached.cache_clear()


def _reports(check_ids):
    """{check id: its report's to_dict() without ms}, the checks run in the
    given order in this process."""
    out = {}
    for check_id in check_ids:
        for report in cli.run_check(check_id):
            d = report.to_dict()
            del d["ms"]
            out[report.check_id] = d
    return out


def test_reports_do_not_depend_on_order_or_caches(fresh_caches):
    ids = sorted(cli.REGISTRY)
    alone = {}
    for check_id in ids:
        _clear()
        alone.update(_reports([check_id]))
    assert sorted(alone) == ids
    _clear()
    assert _reports(ids) == alone
    _clear()
    assert _reports(ids[::-1]) == alone
    assert _reports(ids) == alone  # warm


def test_checks_leave_the_cached_tau_tables_unchanged(fresh_caches):
    # the cache hands one table per spin, and one lm plan per spin pair, to
    # every caller, so no caller may write to it
    tables = {two_j: funq._tau_table(two_j) for two_j in range(9)}
    before = copy.deepcopy(tables)
    cli.run_check("*")
    for two_j, table in tables.items():
        assert funq._tau_table(two_j) is table
        assert table == before[two_j] == funq._tau_table.__wrapped__(two_j)
    plans = qhirota._lm_packed
    cached = plans.cache_info().currsize
    assert cached > 0
    seen = 0
    for two in itertools.product(range(1, 5), repeat=2):
        hits = plans.cache_info().hits
        plan = plans(*two)
        if plans.cache_info().hits > hits:  # a plan the checks built
            seen += 1
            assert vars(plan) == vars(plans.__wrapped__(*two)), two
    assert seen == cached
