"""JSON interchange for schemas and instances."""

from .json_io import (JsonIoError, canonical_json, dump_instance,
                      instance_from_json, instance_to_json, load_instance,
                      schema_from_json, schema_to_json, value_from_json,
                      value_to_json)

__all__ = [
    "JsonIoError", "canonical_json", "dump_instance", "instance_from_json",
    "instance_to_json", "load_instance",
    "schema_from_json", "schema_to_json", "value_from_json",
    "value_to_json",
]
