"""The suite's own node ids stay distinguishable.

Some reports cut a node id at 100 characters, so two ids that agree in
their first 100 would read as one test there.
"""

from collections import Counter


def test_no_two_node_ids_share_their_first_100_characters(request):
    # reads what this run collected, so a partial run checks its own part
    prefixes = Counter(item.nodeid[:100] for item in request.session.items)
    assert [prefix for prefix, count in prefixes.items() if count > 1] == []
