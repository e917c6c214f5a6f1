"""Unit tests for the Lipstick-style value-annotation baseline (Sec. 2)."""

from paperbench.annotations import ValueAnnotationCapture, count_annotations
from repro.nested.values import DataItem
from repro.workloads.scenarios import RUNNING_EXAMPLE_TWEETS


class TestAnnotationCounts:
    def test_running_example_35_vs_5(self):
        """Tab. 1: value-level annotation needs 35 annotations, Pebble 5."""
        items = [DataItem(tweet) for tweet in RUNNING_EXAMPLE_TWEETS]
        assert count_annotations(items) == 35
        assert len(items) == 5  # structural provenance: one id per top-level item

    def test_flat_item(self):
        # item itself + two constants
        assert count_annotations([DataItem(a=1, b="x")]) == 3

    def test_nested_struct(self):
        # item + constant (structs are addressed through their constants)
        assert count_annotations([DataItem(user={"id": "lp"})]) == 2

    def test_collection_elements_counted(self):
        # item + 3 constants inside the bag (the bag is addressed via elements)
        assert count_annotations([DataItem(tags=["a", "b", "c"])]) == 4

    def test_empty_dataset(self):
        assert count_annotations([]) == 0


class TestValueAnnotationCapture:
    def test_annotation_ids_unique_and_complete(self):
        capture = ValueAnnotationCapture()
        total = capture.annotate([DataItem(tweet) for tweet in RUNNING_EXAMPLE_TWEETS])
        assert total == 35
        assert len(capture.annotations) == 35
        assert len(set(capture.annotations)) == 35

    def test_paths_point_at_values(self):
        capture = ValueAnnotationCapture()
        capture.annotate([DataItem(user={"id": "lp"}, tags=["x"])])
        rendered = {str(path) for _, path in capture.annotations.values()}
        assert rendered == {"", "user.id", "tags[1]"}

    def test_size_grows_with_values_not_items(self):
        """The scaling problem of Lipstick: size tracks value count."""
        narrow = ValueAnnotationCapture()
        narrow.annotate([DataItem(a=1)] * 10)
        wide = ValueAnnotationCapture()
        wide.annotate([DataItem({f"a{i}": i for i in range(20)})] * 10)
        assert wide.size_bytes() > 10 * narrow.size_bytes()

    def test_item_index_recorded(self):
        capture = ValueAnnotationCapture()
        capture.annotate([DataItem(a=1), DataItem(a=2)])
        indices = {index for index, _ in capture.annotations.values()}
        assert indices == {0, 1}
