from starbook import (
    BookLayout,
    CircularOrder,
    SimpleGraph,
    complete_graph,
    identity_order,
    relaxed_complete,
    star_pages,
    strict_literal,
)
from starbook.render import render_svg


def test_relaxed_k6_layers_and_cap_segments():
    svg = render_svg(relaxed_complete(3))
    assert svg.count('class="page') == 4
    cap_layer = svg.split('class="page crosscap"')[1].split("</g>")[0]
    assert cap_layer.count("<line") == 6  # 3 through edges x 2 segments
    assert cap_layer.count("<circle") == 1  # the cap circle
    disk_lines = sum(
        part.split("</g>")[0].count("<line")
        for part in svg.split('class="page disk"')[1:]
    )
    assert disk_lines == 12


def test_empty_graph_renders_labels_only():
    lay = BookLayout(SimpleGraph(5, frozenset()), identity_order(5), ())
    svg = render_svg(lay)
    assert svg.count("<text") == 5
    assert svg.count("<line") == 0


def test_strict_witness_renders_all_chords():
    lay = star_pages(6)
    svg = render_svg(lay)
    assert svg.count('class="page') == 5
    assert svg.count("<line") == 15


def test_render_is_deterministic():
    assert render_svg(relaxed_complete(4)) == render_svg(relaxed_complete(4))


def test_render_draws_invalid_layouts():
    # Judging is the caller's job (`starbook render` verifies first): the
    # literal strict construction, which duplicates and misses edges, is
    # drawn chord for chord.
    bad = strict_literal(3)
    svg = render_svg(bad)
    assert svg.count("<line") == sum(len(p.edge_set) for p in bad.pages)


def test_render_drops_off_spine_cap_edges():
    # Vertex 4 is missing from the order, so the cap edge 1-4 cannot be
    # drawn; as on disk pages it is dropped, and the cap is checked and
    # drawn from the spine-only edges 2-5 and 3-6, which cross.
    lay = relaxed_complete(3)
    broken = BookLayout(lay.graph, CircularOrder((1, 2, 3, 5, 6)), lay.pages)
    svg = render_svg(broken)
    cap_layer = svg.split('class="page crosscap"')[1].split("</g>")[0]
    assert cap_layer.count("<line") == 4  # 2 through edges x 2 segments


def test_mixed_cap_with_planar_edges():
    from starbook import BookLayout, crosscap_page, disk_page

    g = complete_graph(6)
    pages = (
        disk_page(sorted(g.edges - {(1, 3), (2, 4), (5, 6)})),
        crosscap_page([(1, 3), (2, 4), (5, 6)]),
    )
    lay = BookLayout(g, identity_order(6), pages)
    svg = render_svg(lay)  # page 1 is not a star forest; geometry is fine
    cap_layer = svg.split('class="page crosscap"')[1].split("</g>")[0]
    # two through chords -> 4 segments, one planar chord -> 1 line
    assert cap_layer.count("<line") == 5
