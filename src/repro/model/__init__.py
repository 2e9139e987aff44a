"""The WOL data model (paper Section 2): types, schemas, keys, instances."""

from .types import (BOOL, FLOAT, INT, STR, UNIT, BaseType, ClassType,
                    ListType, RecordType, SetType, Type, TypeError_,
                    VariantType, parse_type, record, set_of, variant)
from .values import (UNIT_VALUE, Oid, Record, Value, ValueError_, Variant,
                     WolList, WolSet, check_value, format_value, oids_in)
from .schema import Schema, SchemaError, merge_schemas, parse_schema
from .keys import (KeyError_, KeyFunction, KeySpec, KeyViolation, KeyedSchema,
                   attribute_key, attributes_key, key_violations)
from .instance import (Instance, InstanceBuilder, InstanceError,
                       empty_instance)
from .isomorphism import find_isomorphism, isomorphic

__all__ = [
    "BOOL", "FLOAT", "INT", "STR", "UNIT", "BaseType", "ClassType",
    "ListType", "RecordType", "SetType", "Type", "TypeError_", "VariantType",
    "parse_type", "record", "set_of", "variant",
    "UNIT_VALUE", "Oid", "Record", "Value", "ValueError_", "Variant",
    "WolList", "WolSet", "check_value", "format_value", "oids_in",
    "Schema", "SchemaError", "merge_schemas", "parse_schema",
    "KeyError_", "KeyFunction", "KeySpec", "KeyViolation", "KeyedSchema",
    "attribute_key", "attributes_key", "key_violations",
    "Instance", "InstanceBuilder", "InstanceError", "empty_instance",
    "find_isomorphism", "isomorphic",
]
