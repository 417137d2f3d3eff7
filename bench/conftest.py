import checkout

checkout.import_package()
